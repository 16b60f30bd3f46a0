// Package txn is a fixture proving the transaction manager may not flush
// the pool: a commit is forced by a checkpoint after it, core.Checkpoint.
package txn

import "postlob/internal/buffer"

func force(p *buffer.Pool) error {
	return p.FlushAll() // want `buffer\.Pool\.FlushAll called from postlob/internal/txn`
}
