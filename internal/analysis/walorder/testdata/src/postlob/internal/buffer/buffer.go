// Package buffer is a fixture stub standing in for postlob/internal/buffer:
// the walorder analyzer matches flush calls by import path and method name,
// so only the names matter here.
package buffer

import "postlob/internal/storage"

type Pool struct{ mgr storage.Manager }

func (p *Pool) FlushAll() error { return nil }

func (p *Pool) FlushRel() error { return nil }

func (p *Pool) ApplyRedoImage(rel string, blk int, img []byte) error { return nil }

// Unlink is the one relation unlink: it may remove the storage.
func (p *Pool) Unlink(rel string) error { return p.mgr.Unlink(rel) } // allowed
