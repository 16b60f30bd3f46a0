// Package buffer is a fixture stub standing in for postlob/internal/buffer:
// the walorder analyzer matches flush calls by import path and method name,
// so only the names matter here.
package buffer

type Pool struct{}

func (p *Pool) FlushAll() error { return nil }

func (p *Pool) FlushRel() error { return nil }

func (p *Pool) ApplyRedoImage(rel string, blk int, img []byte) error { return nil }
