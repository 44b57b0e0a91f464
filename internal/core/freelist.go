package core

import (
	"sync"
	"sync/atomic"
)

// FreeList is a free list of scratch objects — lane sets, CLSTM_new
// trainers — shared by the models of one configuration (see PerConfig): a
// borrower takes one for a call and puts it back when the call ends, so the
// list never makes more than were borrowed at once. It is a mutex and a
// slice, not a sync.Pool: a GC may empty a pool, which would bring back
// allocations in the steady state and make memory depend on GC timing. It
// is safe for concurrent use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
	made int
}

// Take pops an object. On an empty list it returns nil and counts one more
// made: the caller makes it, and puts it back like any other.
func (l *FreeList[T]) Take() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		l.made++
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put returns an object to the list. The borrower must not touch it
// afterwards.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// Made reports how many objects the list's borrowers have made.
func (l *FreeList[T]) Made() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.made
}

// PerConfig keeps one T — a free list — per model configuration, so that
// every model of a Config, made by NewModel, Clone or LoadModel, reaches
// the same one. Its users look a configuration up when a model first
// borrows, not when one is made, so a model dropped unrun registers
// nothing. A list and the objects on it live as long as the process:
// a node serves one configuration; a process that makes models of many
// keeps one list, and what was borrowed from it at once, per
// configuration.
type PerConfig[T any] struct {
	mu    sync.Mutex
	lists map[Config]*T
}

// For returns cfg's T, making it on first use.
func (r *PerConfig[T]) For(cfg Config) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.lists[cfg]
	if !ok {
		if r.lists == nil {
			r.lists = make(map[Config]*T)
		}
		l = new(T)
		r.lists[cfg] = l
	}
	return l
}

// widen raises *widest to n when it is below and returns the width to make:
// the larger of the two.
func widen(widest *atomic.Int64, n int) int {
	for {
		w := widest.Load()
		if int64(n) <= w {
			return int(w)
		}
		if widest.CompareAndSwap(w, int64(n)) {
			return n
		}
	}
}
