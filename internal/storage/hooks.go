package storage

import "sync/atomic"

// KillPointFunc observes a named kill point of the durable layers: the
// storage backends themselves and the write-ahead log above them. The
// faults package installs its process-kill counter here when SEMFS_KILL
// arms a "storage."- or "wal."-prefixed point; neither package imports
// faults, which keeps the wal → storage layering acyclic while chaos code in
// faults drives backend-routed and WAL-backed runs.
//
// Storage points bracket the three operations whose crash timing matters to
// the durability arguments:
//
//	storage.write.before / storage.write.after
//	storage.sync.before  / storage.sync.after
//	storage.rename.before / storage.rename.after
type KillPointFunc func(point string)

var killHook atomic.Pointer[KillPointFunc]

// SetKillPointHook installs fn as the process-wide kill-point observer.
// Pass nil to remove it. The nil fast path costs one atomic load.
func SetKillPointHook(fn KillPointFunc) {
	if fn == nil {
		killHook.Store(nil)
		return
	}
	killHook.Store(&fn)
}

// HitKillPoint reports one arrival at a named kill point to the installed
// observer, if any.
func HitKillPoint(point string) {
	if fn := killHook.Load(); fn != nil {
		(*fn)(point)
	}
}
