// Package storage is a fixture stub standing in for postlob/internal/storage:
// the walorder analyzer matches Unlink calls by import path and method name.
// A wrapping manager delegating to the one it wraps is allowed.
package storage

type Manager interface {
	Unlink(rel string) error
}

type Wrapper struct{ Manager }

func (w *Wrapper) Unlink(rel string) error { return w.Manager.Unlink(rel) } // allowed: a manager delegating
