package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// AccessBudget is a shared store-access meter. Every Accessor attached to
// the same budget adds its node-record fetches to one atomic counter, so a
// query that fans out across goroutines (the shard workers) is
// metered as a whole. Enforcement lives in exec.Guard, which compares
// Used() against the query's MaxAccesses limit at every cooperative check;
// the budget itself only counts.
type AccessBudget struct {
	used atomic.Int64
}

// Used returns the number of accesses charged so far.
func (b *AccessBudget) Used() int64 { return b.used.Load() }

// add charges n accesses. Called from Accessor.charge.
func (b *AccessBudget) add(n int64) { b.used.Add(n) }

// ErrInjectedFault is the sentinel every injected storage fault unwraps
// to; callers classify with errors.Is(err, storage.ErrInjectedFault).
var ErrInjectedFault = errors.New("storage: injected fault")

// FaultError is the typed error surfaced when a FaultInjector fires: the
// store pretends the backing page read failed. Access methods read the
// store through error-free interfaces, so the injector raises the fault as
// a panic carrying this error; the db entry points recover it back into an
// ordinary returned error (see db.recoverPanic).
type FaultError struct {
	// Access is the 1-based global access count at which the fault fired.
	Access int64
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("storage: injected fault at access %d", e.Access)
}

// Unwrap makes errors.Is(err, ErrInjectedFault) true.
func (e *FaultError) Unwrap() error { return ErrInjectedFault }

// FaultInjector deterministically injects storage faults and latency, for
// exercising the engine's degradation paths under test and in staging. All
// decisions are derived from a global access counter plus Seed, so a given
// configuration fails the exact same accesses on every run.
//
// A FaultInjector is installed store-wide with Store.SetFaults; every
// Accessor created afterwards consults it on each node-record fetch. It is
// a test/staging facility: FailEvery panics with *FaultError, which only
// the shard facade's entry points translate back into errors — code that
// drives exec operators directly will crash, by design.
type FaultInjector struct {
	// FailEvery makes every k-th store access fail (0 disables).
	FailEvery int64
	// Latency is added to every LatencyEvery-th access (both must be set;
	// LatencyEvery of 1 delays every access).
	Latency      time.Duration
	LatencyEvery int64
	// Seed offsets which access within each FailEvery/LatencyEvery cycle
	// fires, so different seeds fault different accesses deterministically.
	Seed int64

	n atomic.Int64
}

// Accesses returns the number of accesses observed so far.
func (f *FaultInjector) Accesses() int64 { return f.n.Load() }

// onAccess is called by Accessor.charge for every node-record fetch.
func (f *FaultInjector) onAccess() {
	n := f.n.Add(1)
	if f.LatencyEvery > 0 && f.Latency > 0 && (n+f.Seed)%f.LatencyEvery == 0 {
		//tixlint:ignore sleephygiene the injected latency IS the feature: a deterministic, uncancellable stall is exactly what resilience drills simulate
		time.Sleep(f.Latency)
	}
	if f.FailEvery > 0 && (n+f.Seed)%f.FailEvery == 0 {
		panic(&FaultError{Access: n})
	}
}
