package bench

// The crash-point sweep, after the ALICE school of crash-state
// exploration: run a fixed workload and crash it at EVERY write op in
// turn, then recompose over the crashed device, let redo recovery run,
// and check the survival invariants.
//
// Two workload families plug into the one sweep, each a list of steps
// and a check:
//
//   - primary (CP): committed transactions with a checkpoint halfway.
//     No acknowledged commit may be lost, no key may read garbage
//     (missing or typed corruption are the only alternatives), and the
//     page, journal and B+-tree scrubs must come back clean.
//   - replica (B10): a replica applying a primary's shipped chunks. The
//     recovered log must be a byte-exact prefix of the primary's, an
//     incremental catch-up from its end must converge, the indexes must
//     agree pair for pair, and the scrub must come back clean.
//
// Each family is swept under two crash models that bracket what a real
// power loss can do:
//
//   - cut: the device dies at write-class op i and stays dead, then the
//     power is cut (osal.CrashFS): the "least persisted" extreme,
//     nothing unsynced survives. One more point cuts the power after
//     the whole workload ran.
//   - torn: write op i silently persists only a prefix and every later
//     write fails: the "most persisted" extreme, everything reaches the
//     device but one write tore. The step in flight when the tear
//     fires is unacknowledged: the power died mid-write, so no ack ever
//     reached the application.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"famedb/internal/composer"
	"famedb/internal/osal"
	"famedb/internal/repl"
	"famedb/internal/storage"
)

// CrashConfig fixes a sweep.
type CrashConfig struct {
	// Family is the workload crashed: "primary" or "replica".
	Family string
	// Commits is the number of committed transactions the primary runs
	// (and, for the replica family, ships).
	Commits int
	// Torn selects the torn-write model instead of clean cuts.
	Torn bool
	// Seed drives the torn-prefix lengths for exact replay.
	Seed int64
}

// CrashReport is a sweep's outcome.
type CrashReport struct {
	Family  string `json:"family"`
	Mode    string `json:"mode"` // "cut" or "torn"
	Commits int    `json:"commits"`
	// Points is the number of crash points swept: under torn the
	// writes the clean workload performs, under cut its write-class ops
	// plus the cut after the last one.
	Points int64 `json:"points"`
	// Recovered counts points where every invariant held.
	Recovered int `json:"recovered"`
	// Injected counts points whose fault fired.
	Injected int `json:"injected"`
	// Boundaries counts the log ends that pulling the power between two
	// replica steps leaves (the empty log and every chunk's end);
	// BoundariesRecovered counts those some recovered point ended at.
	// Only a cut sweep of the replica family sets them: the primary's
	// check does not compare log ends.
	Boundaries          int `json:"boundaries,omitempty"`
	BoundariesRecovered int `json:"boundaries_recovered,omitempty"`
	// Failures lists invariant violations, one line per failed point.
	Failures []string `json:"failures,omitempty"`
}

// Ok reports whether every point recovered and the recovered log ends
// covered every step boundary.
func (r *CrashReport) Ok() bool {
	return len(r.Failures) == 0 && r.BoundariesRecovered == r.Boundaries
}

// Format renders the report as text.
func (r *CrashReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crash sweep (%s, %s): %d commits, %d crash points\n", r.Family, r.Mode, r.Commits, r.Points)
	fmt.Fprintf(&b, "  recovered: %d/%d (faults fired: %d)\n", r.Recovered, r.Points, r.Injected)
	if r.Boundaries > 0 {
		fmt.Fprintf(&b, "  chunk boundaries among the recovered log ends: %d/%d\n", r.BoundariesRecovered, r.Boundaries)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	if r.Ok() {
		b.WriteString("  every point recovered\n")
	}
	return b.String()
}

// crashStep is one workload step. key names the record a primary
// commit writes; empty for the checkpoint and the replica's chunks.
type crashStep struct {
	key string
	run func(inst *composer.Instance) error
}

// crashFamily is one workload the sweep crashes.
type crashFamily struct {
	steps []crashStep
	// check recomposes over the crashed filesystem, given how many
	// leading steps were acknowledged, and returns the recovered log
	// end and a failure description or "".
	check func(fs osal.FS, acked int) (end int64, fail string)
	// boundaries are the log ends between steps; nil when check does
	// not report ends.
	boundaries []int64
	close      func() error
}

// crashFeatures is the harnessed node: transactional with Recovery (the
// redo path the replica's applier shares) and Checksums, so torn pages
// surface as typed corruption rather than garbage keys. Replication
// itself is not composed: the replica family drives the ship applier
// directly, standing in for the network layer.
var crashFeatures = []string{
	"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
	"Put", "Get", "Remove", "Transaction", "ForceCommit", "Recovery", "Checksums",
}

func crashCompose(fs osal.FS) (*composer.Instance, error) {
	return composer.ComposeProduct(composer.Options{
		FS: fs,
		// A tiny cache forces evictions, so index page writes land
		// inside the crash windows, not just at checkpoints.
		CachePages: 4,
		Retry:      storage.RetryPolicy{Attempts: 2, Sleep: func(time.Duration) {}},
	}, crashFeatures...)
}

func crashValue(key string) []byte { return []byte("value-of-" + key) }

// primaryFamily commits one key per transaction and checkpoints after
// the first half.
func primaryFamily(commits int) *crashFamily {
	f := &crashFamily{close: func() error { return nil }}
	commit := func(key string) crashStep {
		return crashStep{key: key, run: func(inst *composer.Instance) error {
			tx := inst.Txn.Begin()
			if err := tx.Put([]byte(key), crashValue(key)); err != nil {
				tx.Abort()
				return err
			}
			return tx.Commit()
		}}
	}
	for i := 0; i < commits/2; i++ {
		f.steps = append(f.steps, commit(fmt.Sprintf("a%03d", i)))
	}
	f.steps = append(f.steps, crashStep{run: func(inst *composer.Instance) error { return inst.Txn.Checkpoint() }})
	for i := commits / 2; i < commits; i++ {
		f.steps = append(f.steps, commit(fmt.Sprintf("b%03d", i)))
	}
	f.check = func(fs osal.FS, acked int) (int64, string) {
		inst, err := crashCompose(fs)
		if err != nil {
			return 0, fmt.Sprintf("recompose: %v", err)
		}
		defer inst.Close()
		for i, st := range f.steps {
			if st.key == "" {
				continue
			}
			v, err := inst.Store.Get([]byte(st.key))
			switch {
			case i < acked && err != nil:
				return 0, fmt.Sprintf("acked commit %q lost: %v", st.key, err)
			case err == nil && string(v) != string(crashValue(st.key)):
				return 0, fmt.Sprintf("key %q reads garbage %q", st.key, v)
			case errors.Is(err, storage.ErrPageCorrupt):
				return 0, fmt.Sprintf("key %q reads torn page: %v", st.key, err)
			}
		}
		return 0, scrub(inst)
	}
	return f
}

// replicaFamily ships a primary's workload of puts and removes and
// applies one shipped chunk per step.
func replicaFamily(commits int) (*crashFamily, error) {
	primary, err := crashCompose(osal.NewMemFS())
	if err != nil {
		return nil, err
	}
	f := &crashFamily{close: primary.Close}
	primary.Txn.SetOnShip(func(base int64, buf []byte) {
		buf = append([]byte(nil), buf...)
		if len(f.boundaries) == 0 {
			// An empty replica log ends where the first chunk begins.
			f.boundaries = append(f.boundaries, base)
		}
		f.boundaries = append(f.boundaries, base+int64(len(buf)))
		f.steps = append(f.steps, crashStep{run: func(inst *composer.Instance) error {
			return inst.Txn.ShipApplier().Apply(base, buf)
		}})
	})
	for i := 0; i < commits; i++ {
		key := fmt.Sprintf("k%04d", i)
		tx := primary.Txn.Begin()
		err := tx.Put([]byte(key), crashValue(key))
		// Every fourth transaction also retracts an earlier key, so the
		// replayed stream exercises the remove path.
		if err == nil && i%4 == 3 {
			err = tx.Remove(fmt.Appendf(nil, "k%04d", i-2))
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			primary.Close()
			return nil, err
		}
	}
	if len(f.steps) < commits {
		primary.Close()
		return nil, fmt.Errorf("crash sweep: only %d chunks shipped for %d commits", len(f.steps), commits)
	}
	f.check = func(fs osal.FS, _ int) (int64, string) { return replicaCheck(primary, fs) }
	return f, nil
}

// replicaCheck verifies a recovered replica against the primary and
// returns the log end recovery left.
func replicaCheck(primary *composer.Instance, fs osal.FS) (int64, string) {
	inst, err := crashCompose(fs)
	if err != nil {
		return 0, fmt.Sprintf("recompose: %v", err)
	}
	defer inst.Close()
	ap := inst.Txn.ShipApplier()
	if ap.NeedsResync() {
		return 0, "recovered replica demands a snapshot resync (marker left behind)"
	}
	end, crc, err := ap.PrefixCRC()
	if err != nil {
		return 0, fmt.Sprintf("replica prefix crc: %v", err)
	}
	walEnd := primary.Txn.WALEnd()
	if end > walEnd {
		return end, fmt.Sprintf("replica log end %d past primary end %d", end, walEnd)
	}
	if pcrc, err := primary.Txn.WALPrefixCRC(end); err != nil || crc != pcrc {
		return end, fmt.Sprintf("recovered log is not a byte-exact primary prefix at %d (%v)", end, err)
	}
	// Incremental catch-up from exactly where recovery left the log:
	// the reconnect handshake's happy path.
	if end < walEnd {
		buf, err := primary.Txn.ReadWALRange(end, walEnd)
		if err == nil {
			err = ap.Apply(end, buf)
		}
		if err != nil {
			return end, fmt.Sprintf("catch-up from %d: %v", end, err)
		}
	}
	end2, crc2, err := ap.PrefixCRC()
	if err != nil {
		return end, fmt.Sprintf("caught-up prefix crc: %v", err)
	}
	if fullCRC, err := primary.Txn.WALPrefixCRC(walEnd); err != nil || end2 != walEnd || crc2 != fullCRC {
		return end, fmt.Sprintf("catch-up did not converge: end %d of %d (%v)", end2, walEnd, err)
	}
	if err := repl.VerifyIndexes(primary.Store.Index(), inst.Store.Index()); err != nil {
		return end, fmt.Sprintf("replicated index verify: %v", err)
	}
	return end, scrub(inst)
}

// scrub runs the page, journal and B+-tree verification and returns a
// failure description or "".
func scrub(inst *composer.Instance) string {
	rep, err := inst.Verify()
	if err != nil {
		return fmt.Sprintf("scrub: %v", err)
	}
	if !rep.Ok() {
		return fmt.Sprintf("scrub found damage: %s", rep)
	}
	return ""
}

// CrashSweep crashes the configured family's workload at every write
// op under the configured model and checks recovery at each point.
func CrashSweep(cfg CrashConfig) (*CrashReport, error) {
	if cfg.Commits < 4 {
		cfg.Commits = 4
	}
	var fam *crashFamily
	switch cfg.Family {
	case "primary":
		fam = primaryFamily(cfg.Commits)
	case "replica":
		var err error
		if fam, err = replicaFamily(cfg.Commits); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("crash sweep: unknown family %q", cfg.Family)
	}
	defer fam.close()
	rep := &CrashReport{Family: cfg.Family, Mode: "cut", Commits: cfg.Commits}
	class := osal.OpAnyWrite
	if cfg.Torn {
		rep.Mode, class = "torn", osal.OpWrite
	}

	// Probe run: the clean workload's op count is the sweep width. The
	// rule-free schedule just counts.
	probeFS := osal.NewFaultFS(osal.NewMemFS())
	inst, err := crashCompose(probeFS)
	if err != nil {
		return nil, err
	}
	probe := osal.NewSchedule(cfg.Seed)
	probeFS.SetSchedule(probe)
	for _, st := range fam.steps {
		if err := st.run(inst); err != nil {
			inst.Close()
			return nil, fmt.Errorf("crash sweep: probe workload: %w", err)
		}
	}
	rep.Points = probe.Counts()[class]
	if err := inst.Close(); err != nil {
		return nil, err
	}
	if rep.Points < 8 {
		return nil, fmt.Errorf("crash sweep: workload performs only %d write ops; sweep pointless", rep.Points)
	}
	if !cfg.Torn {
		// The cut after the last op: the whole workload ran, and only
		// what it synced survives. The only point where the last step is
		// acknowledged.
		rep.Points++
	}

	recovered := map[int64]bool{}
	for i := int64(1); i <= rep.Points; i++ {
		crash := osal.NewCrashFS(osal.NewMemFS())
		fs := osal.NewFaultFS(crash)
		inst, err := crashCompose(fs)
		if err != nil {
			return nil, err
		}
		sched := osal.NewSchedule(cfg.Seed + i)
		if cfg.Torn {
			// Write op i tears; every later write fails until the power
			// returns (the schedule is removed after the crash).
			sched.Add(osal.Rule{Class: osal.OpWrite, At: i, Kind: osal.FaultTorn})
			sched.Add(osal.Rule{Class: osal.OpWrite, At: i + 1, Kind: osal.FaultError, Heal: 1 << 30})
		} else {
			sched.Add(osal.Rule{Class: osal.OpAnyWrite, At: i, Kind: osal.FaultDead})
		}
		fs.SetSchedule(sched)
		acked := 0
		for _, st := range fam.steps {
			if err := st.run(inst); err != nil || cfg.Torn && len(sched.Injections()) > 0 {
				break
			}
			acked++
		}
		if len(sched.Injections()) > 0 {
			rep.Injected++
		}
		fs.Disarm()
		// The instance is abandoned, never Closed; a cut also loses
		// everything unsynced.
		if !cfg.Torn {
			if err := crash.Crash(); err != nil {
				return nil, err
			}
		}
		end, fail := fam.check(fs, acked)
		if fail != "" {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s@%d: %s", rep.Mode, i, fail))
			continue
		}
		rep.Recovered++
		recovered[end] = true
	}
	if !cfg.Torn {
		rep.Boundaries = len(fam.boundaries)
		for _, b := range fam.boundaries {
			if recovered[b] {
				rep.BoundariesRecovered++
			}
		}
	}
	return rep, nil
}

// crashSweeps runs a family under both models, cut first.
func crashSweeps(family string, commits int) ([]*CrashReport, error) {
	var reps []*CrashReport
	for _, torn := range []bool{false, true} {
		r, err := CrashSweep(CrashConfig{Family: family, Commits: commits, Torn: torn, Seed: benchSeed})
		if err != nil {
			return reps, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}
