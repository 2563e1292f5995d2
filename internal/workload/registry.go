package workload

import "sync"

// Built workloads are immutable: the Program is immutable by construction,
// and the Behaviors slot index and tables are only ever read after Build
// returns (all dynamic state lives in per-run Walkers, sized by those
// tables). That makes one build shareable by any number of concurrent
// simulations, so the experiment sweeps do not pay the synthesis cost once
// per scheme x capacity job.
//
// The registry caches builds keyed by (profile value, code base) behind a
// per-key sync.Once; the first caller builds, everyone else waits and
// shares. Keying by the full profile value means a caller-modified profile
// never collides with the stock one of the same name.

type registryKey struct {
	prof Profile
	base uint64
}

type registryEntry struct {
	once sync.Once
	wl   *Workload
	err  error
}

var registry sync.Map // registryKey -> *registryEntry

// Shared returns the cached build of the named Table II profile at the
// default code base, building it on first use. The returned workload is
// shared: callers must treat it as read-only (NewWalker holds all per-run
// state, so normal simulation use is safe).
func Shared(name string) (*Workload, error) { return SharedAt(name, CodeBase) }

// SharedAt is Shared at an explicit code base (SMT pairs use distinct bases
// so two threads' code regions do not alias in a shared uop cache).
func SharedAt(name string, base uint64) (*Workload, error) {
	prof, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return SharedBuildAt(prof, base)
}

// SharedBuildAt is the profile-keyed equivalent of BuildAt: equal profile
// values at the same base share one build.
func SharedBuildAt(p *Profile, base uint64) (*Workload, error) {
	k := registryKey{*p, base}
	v, _ := registry.LoadOrStore(k, &registryEntry{})
	e := v.(*registryEntry)
	e.once.Do(func() {
		e.wl, e.err = BuildAt(p, base)
	})
	return e.wl, e.err
}
