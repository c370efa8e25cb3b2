// Package minheap is a binary min-heap sifted on the values of a slice,
// where container/heap would box every element into an interface on the
// way in and again on the way out. before must be a strict order (the
// schedulers here break ties by a unique sequence number), so pop order
// does not depend on the heap's layout.
package minheap

// Push adds x to the heap h and returns the grown slice.
func Push[T any](h []T, x T, before func(a, b *T) bool) []T {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !before(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// Pop removes and returns the least element of h, which is not empty.
func Pop[T any](h []T, before func(a, b *T) bool) ([]T, T) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		child := 2*i + 1
		if child+1 < n && before(&h[child+1], &h[child]) {
			child++ // the earlier of the two
		}
		if child >= n || !before(&h[child], &h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	x := h[n]
	var zero T
	h[n] = zero // the backing array must not keep what x points to alive
	return h[:n], x
}
