// composim: indexed binary min-heap primitives.
//
// The heap is a std::vector<T> whose elements know where they sit, so an
// element can be re-keyed or erased in place in O(log n) instead of being
// left behind as a tombstone. `less(a, b)` orders the elements (the least
// one is on top) and `place(e, i)` records that element `e` now sits at
// index i; it is called for every element a sift moves, including the one
// being sifted. The Simulator's event keys and the FlowNetwork's
// completion heap both sit on these four functions.
//
// Under a strict order every correct heap pops the same sequence, so the
// layout these functions produce is never observable.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace composim::heap {

/// Move h[i] up to its place; returns the index it ends at.
template <class T, class Less, class Place>
std::size_t siftUp(std::vector<T>& h, std::size_t i, Less less, Place place) {
  T e = std::move(h[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!less(e, h[parent])) break;
    h[i] = std::move(h[parent]);
    place(h[i], i);
    i = parent;
  }
  h[i] = std::move(e);
  place(h[i], i);
  return i;
}

/// Move h[i] down to its place.
template <class T, class Less, class Place>
void siftDown(std::vector<T>& h, std::size_t i, Less less, Place place) {
  T e = std::move(h[i]);
  const std::size_t n = h.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && less(h[child + 1], h[child])) ++child;
    if (!less(h[child], e)) break;
    h[i] = std::move(h[child]);
    place(h[i], i);
    i = child;
  }
  h[i] = std::move(e);
  place(h[i], i);
}

/// Append `e` and sift it into place.
template <class T, class Less, class Place>
void push(std::vector<T>& h, T e, Less less, Place place) {
  h.push_back(std::move(e));
  siftUp(h, h.size() - 1, less, place);
}

/// Restore the order after h[i]'s key changed in either direction.
template <class T, class Less, class Place>
void update(std::vector<T>& h, std::size_t i, Less less, Place place) {
  if (siftUp(h, i, less, place) == i) siftDown(h, i, less, place);
}

/// Remove h[i]. The caller marks the removed element as out of the heap.
template <class T, class Less, class Place>
void erase(std::vector<T>& h, std::size_t i, Less less, Place place) {
  const std::size_t last = h.size() - 1;
  if (i != last) h[i] = std::move(h[last]);
  h.pop_back();
  if (i != last) update(h, i, less, place);
}

}  // namespace composim::heap
