// Canonical lock hierarchy for postlob. This file is the single declared
// source of truth the lockorder analyzer checks the code against; DESIGN.md
// documents the reasoning behind each level.
//
// The order is the one the production code actually obeys (verified by the
// interprocedural sweep): catalog and access-method locks are taken before
// buffer-pool locks; pool metadata before partition latches; latches before
// the transaction manager's mutex (heap visibility checks call
// txn.Manager.Status/CommitTS while holding frame latches); the transaction
// manager before the WAL (the commit path appends the commit record while
// holding txn.Manager.mu); and the WAL before storage handles (the flusher
// writes segments under wal.Log.ioMu).
//
// Acquiring a class at a strictly earlier level while holding one from a
// later level is a hierarchy violation. Classes within one level are
// unordered relative to each other (but still cycle-checked, and same-class
// re-entrancy is always diagnosed). Classes not listed here are outside the
// declared order and participate only in cycle detection.
package lockorder

import "postlob/internal/analysis/callgraph"

// Class is one lock class in the declared hierarchy.
type Class struct {
	Name callgraph.LockClass
	// Latch marks short-term buffer latches that must never be held across
	// blocking operations (the blockinlock invariant).
	Latch bool
}

// Level is one rank of the hierarchy: classes that may not be mixed with
// earlier levels once held.
type Level struct {
	Doc     string
	Classes []Class
}

// Hierarchy is the declared canonical acquisition order, outermost first.
var Hierarchy = []Level{
	{Doc: "checkpoint serialisation: core.Checkpoint, the one checkpoint " +
		"body, holds its pool's CkptMu while it flushes the buffer pool, " +
		"syncs storage beneath it, saves the commit log and appends to the " +
		"WAL, so CkptMu sits above every pool, transaction and storage class", Classes: []Class{
		{Name: "heap.Pool.CkptMu"},
	}},
	{Doc: "HTTP gateway Inversion bootstrap: fsMu is held across " +
		"inversion.Init/OpenReadOnly, which resolve (and on a primary create) " +
		"catalog classes and touch pages beneath them, so it ranks above the " +
		"catalog", Classes: []Class{
		{Name: "gateway.Gateway.fsMu"},
	}},
	{Doc: "catalog: name resolution happens before any page access", Classes: []Class{
		{Name: "catalog.Catalog.mu"},
	}},
	{Doc: "access-method relation locks (heap and btree are independent); " +
		"every opener of a relation shares the one handle installed on its " +
		"buffer-pool descriptor, so these locks exclude all its readers " +
		"from structural changes", Classes: []Class{
		{Name: "heap.Relation.mu"},
		{Name: "btree.Tree.mu"},
	}},
	{Doc: "buffer pool relation lock (the descriptor registry and every " +
		"descriptor's length) and log-batch lock, never held " +
		"together: LogDirtyPages holds logMu from taking frames off the " +
		"WAL-dirty lists until their images are appended, pinning through " +
		"partition latches and copying under content latches on the way, and " +
		"an eviction reaches it from inside an access method", Classes: []Class{
		{Name: "buffer.Pool.nbMu"},
		{Name: "buffer.Pool.logMu"},
	}},
	{Doc: "buffer pool partition latches (ascending index when several)", Classes: []Class{
		{Name: "buffer.partition.mu", Latch: true},
	}},
	{Doc: "per-relation extension locks, one in each relation's descriptor", Classes: []Class{
		{Name: "buffer.Rel.ext"},
	}},
	{Doc: "frame content latches", Classes: []Class{
		{Name: "buffer.Frame.latch", Latch: true},
	}},
	{Doc: "transaction manager (visibility checks run under latches)", Classes: []Class{
		{Name: "txn.Manager.mu"},
	}},
	{Doc: "savepoint table, always nested inside txn.Manager.mu", Classes: []Class{
		{Name: "txn.Manager.saveMu"},
	}},
	{Doc: "WAL buffer lock (commit appends run under txn.Manager.mu)", Classes: []Class{
		{Name: "wal.Log.mu"},
	}},
	{Doc: "WAL segment I/O lock, never nested inside wal.Log.mu", Classes: []Class{
		{Name: "wal.Log.ioMu"},
	}},
	{Doc: "buffer pool leaf locks: free list, " +
		"background-writer error slot, the write-back drain gate (wbMu is " +
		"taken bare by write-backs signing in/out and by checkpoint syncs " +
		"draining them; Cond.Wait releases it while blocked), and each " +
		"partition's WAL-dirty list (wdMu is taken under a content latch by " +
		"MarkDirty and under partition.mu by installs and the drain, and " +
		"nothing is ever acquired while it is held)", Classes: []Class{
		{Name: "buffer.partition.wdMu"},
		{Name: "buffer.Pool.freeMu"},
		{Name: "buffer.Pool.bgErrMu"},
		{Name: "buffer.Pool.wbMu"},
	}},
	{Doc: "replication session state: the receiver's current-connection " +
		"slot and its resume-position file are touched bare — never while " +
		"holding, and never while acquiring, any pool or WAL class", Classes: []Class{
		{Name: "repl.Receiver.mu"},
		{Name: "repl.Receiver.ctlMu"},
	}},
	{Doc: "network-edge session state: the accept-loop helper's listener/" +
		"connection table (the replication sender's and the gateway's), a v2 " +
		"connection's per-stream routing map, and the v2 client's stream " +
		"table are leaves held only for table access; the client's write lock " +
		"serialises socket writes of pre-encoded frames and never nests " +
		"another class", Classes: []Class{
		{Name: "daemon.Server.mu"},
		{Name: "gateway.gwConn.mu"},
		{Name: "client.Stream.mu"},
		{Name: "client.Stream.wmu"},
	}},
	{Doc: "heap insert-placement hints, the stamped-block bitmap and the " +
		"facade's vacuum-daemon slot, all leaves: placeMu is taken under the " +
		"relation lock (and by Delete under the frame latch it stamped " +
		"through) but never held across a pool call or a latch acquisition; " +
		"vacMu guards which daemon is running and is never held across a " +
		"vacuum pass or the daemon's Stop", Classes: []Class{
		{Name: "heap.Relation.placeMu"},
		{Name: "postlob.DB.vacMu"},
	}},
	{Doc: "storage manager handles, the innermost layer", Classes: []Class{
		{Name: "storage.Switch.mu"},
		{Name: "storage.DiskManager.mu"},
		{Name: "storage.MemManager.mu"},
		{Name: "storage.WormManager.mu"},
		{Name: "storage.CrashManager.mu"},
		{Name: "storage.FaultManager.mu"},
		{Name: "storage.tracker.mu"},
	}},
}

// Rank maps each declared class to its level index (outermost = 0).
func Rank() map[callgraph.LockClass]int {
	out := make(map[callgraph.LockClass]int)
	for i, lvl := range Hierarchy {
		for _, c := range lvl.Classes {
			out[c.Name] = i
		}
	}
	return out
}

// LatchClasses returns the classes marked as latches, the set blockinlock
// guards.
func LatchClasses() map[callgraph.LockClass]bool {
	out := make(map[callgraph.LockClass]bool)
	for _, lvl := range Hierarchy {
		for _, c := range lvl.Classes {
			if c.Latch {
				out[c.Name] = true
			}
		}
	}
	return out
}
