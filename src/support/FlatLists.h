//===- support/FlatLists.h - Array views and lists of lists -----*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ArrayView is a non-owning (pointer, length) view of contiguous elements.
/// FlatLists stores a list of lists back to back in one item array plus an
/// offsets array (the CSR layout): list K is Items[Offsets[K] ..
/// Offsets[K+1]).  The solver's clique covers and per-vertex clique indexes
/// use it, so building one costs two allocations instead of one per list,
/// and walking it streams one contiguous array.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_SUPPORT_FLATLISTS_H
#define LAYRA_SUPPORT_FLATLISTS_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace layra {

/// A non-owning view of \p T elements stored contiguously elsewhere.
/// Invalidated by whatever invalidates the underlying storage.
template <typename T> class ArrayView {
public:
  using value_type = T;
  using const_iterator = const T *;

  ArrayView() = default;
  ArrayView(const T *Begin, const T *End) : Begin_(Begin), End_(End) {}

  const T *begin() const { return Begin_; }
  const T *end() const { return End_; }
  const T *data() const { return Begin_; }
  std::size_t size() const { return static_cast<std::size_t>(End_ - Begin_); }
  bool empty() const { return Begin_ == End_; }
  const T &front() const {
    assert(!empty() && "front() of an empty view");
    return *Begin_;
  }
  const T &operator[](std::size_t I) const {
    assert(I < size() && "view index out of range");
    return Begin_[I];
  }

  friend bool operator==(const ArrayView &A, const ArrayView &B) {
    return A.size() == B.size() && std::equal(A.begin(), A.end(), B.begin());
  }
  friend bool operator!=(const ArrayView &A, const ArrayView &B) {
    return !(A == B);
  }

private:
  const T *Begin_ = nullptr;
  const T *End_ = nullptr;
};

/// A list of lists of \p T in CSR layout (see file comment).  Lists are
/// appended with push_back or built in one go from offsets and items.
template <typename T> class FlatLists {
public:
  /// The element of a range-for over the lists: a view that also converts
  /// to an owning std::vector, so loops written against a vector of
  /// vectors (`for (const std::vector<T> &L : Lists)`) keep compiling.
  /// That conversion allocates; hot loops bind the view (or `auto`).
  class ListView : public ArrayView<T> {
  public:
    using ArrayView<T>::ArrayView;
    operator std::vector<T>() const {
      return std::vector<T>(this->begin(), this->end());
    }
  };

  /// Iterates the lists in order.
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ListView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = ListView;

    iterator(const FlatLists *Owner, unsigned K) : Owner(Owner), K(K) {}
    ListView operator*() const {
      ArrayView<T> L = (*Owner)[K];
      return ListView(L.begin(), L.end());
    }
    iterator &operator++() {
      ++K;
      return *this;
    }
    bool operator==(const iterator &O) const { return K == O.K; }
    bool operator!=(const iterator &O) const { return K != O.K; }

  private:
    const FlatLists *Owner;
    unsigned K;
  };

  FlatLists() = default;

  /// Adopts a finished CSR: \p Offsets has one entry per list plus a final
  /// one equal to Items.size(), non-decreasing from 0.
  static FlatLists fromParts(std::vector<uint32_t> Offsets,
                             std::vector<T> Items) {
    assert((Offsets.empty() ? Items.empty()
                            : Offsets.front() == 0 &&
                                  Offsets.back() == Items.size()) &&
           "offsets do not describe the items");
    FlatLists L;
    L.Offsets = std::move(Offsets);
    L.Items = std::move(Items);
    return L;
  }

  /// Number of lists.
  unsigned size() const {
    return Offsets.empty() ? 0 : static_cast<unsigned>(Offsets.size() - 1);
  }
  bool empty() const { return size() == 0; }

  /// Total number of items over all lists.
  std::size_t numItems() const { return Items.size(); }

  ArrayView<T> operator[](unsigned K) const {
    assert(K < size() && "list index out of range");
    return {Items.data() + Offsets[K], Items.data() + Offsets[K + 1]};
  }

  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, size()); }

  /// Appends a copy of \p List as the last list.
  template <typename Range> void push_back(const Range &List) {
    if (Offsets.empty())
      Offsets.push_back(0);
    Items.insert(Items.end(), List.begin(), List.end());
    assert(Items.size() <= UINT32_MAX && "item count overflows offsets");
    Offsets.push_back(static_cast<uint32_t>(Items.size()));
  }

  friend bool operator==(const FlatLists &A, const FlatLists &B) {
    if (A.size() != B.size())
      return false;
    for (unsigned K = 0; K < A.size(); ++K)
      if (A[K] != B[K])
        return false;
    return true;
  }
  friend bool operator!=(const FlatLists &A, const FlatLists &B) {
    return !(A == B);
  }

private:
  /// size() + 1 entries, or none while there are no lists.
  std::vector<uint32_t> Offsets;
  std::vector<T> Items;
};

} // namespace layra

#endif // LAYRA_SUPPORT_FLATLISTS_H
