package bench

// Crash-point recovery harness, after the ALICE school of crash-state
// exploration: run a fixed transactional workload and crash it at EVERY
// write-class operation index in turn, then reopen, let redo recovery
// run, and check the survival invariants — no acknowledged commit lost,
// no torn page silently visible, B+-tree structurally valid, page and
// journal scrubs clean.
//
// Two complementary crash models bracket what a real power loss can do:
//
//   - cut: the workload dies at write op i with an injected error and
//     the device reverts to its last-synced images (osal.CrashFS) — the
//     "least persisted" extreme, nothing unsynced survives.
//   - torn: write op i silently persists only a prefix (an osal
//     Schedule torn-write rule) and the op after it fails — the "most
//     persisted" extreme, everything reaches the device but one write
//     tore. The commit in flight when the tear happens is treated as
//     unacknowledged: in reality the power died mid-write, so no ack
//     ever reached the application.
//
// A point passes when the recomposed instance serves every
// acknowledged commit with the exact written value, no read returns
// garbage (missing or typed corruption are the only alternatives — and
// in practice recovery repairs even those), and the verify scrub comes
// back clean.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"famedb/internal/composer"
	"famedb/internal/osal"
	"famedb/internal/storage"
)

// CrashPointConfig fixes the harness scenario.
type CrashPointConfig struct {
	// Commits is the number of committed transactions in the workload
	// (a checkpoint runs after the first half).
	Commits int
	// Torn selects the torn-write crash model instead of clean cuts.
	Torn bool
	// Seed drives the torn-prefix lengths for exact replay.
	Seed int64
}

// CrashPointReport is the harness outcome.
type CrashPointReport struct {
	Mode    string `json:"mode"` // "cut" or "torn"
	Commits int    `json:"commits"`
	// WriteOps is the number of write-class operations the clean
	// workload performs — the number of crash points swept.
	WriteOps int64 `json:"write_ops"`
	// Recovered counts points where recovery restored every invariant.
	Recovered int `json:"recovered"`
	// Injected counts torn points whose tear actually fired (a tear
	// scheduled past the workload's op count never happens).
	Injected int `json:"injected"`
	// Failures lists invariant violations, one line per failed point.
	Failures []string `json:"failures,omitempty"`
}

// Ok reports whether every crash point recovered.
func (r *CrashPointReport) Ok() bool { return len(r.Failures) == 0 }

// cpFeatures is the harnessed product: transactional with Recovery and
// Checksums, so torn pages surface as typed corruption rather than
// garbage keys.
var cpFeatures = []string{
	"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
	"Put", "Get", "Transaction", "ForceCommit", "Recovery", "Checksums",
}

func cpCompose(fs osal.FS) (*composer.Instance, error) {
	return composer.ComposeProduct(composer.Options{
		FS: fs,
		// A tiny cache forces evictions, so data-file page writes land
		// inside the crash windows, not just at checkpoints.
		CachePages: 4,
		Retry:      storage.RetryPolicy{Attempts: 2, Sleep: func(time.Duration) {}},
	}, cpFeatures...)
}

// cpStep is one workload step: a keyed committed transaction, or the
// mid-workload checkpoint (empty key).
type cpStep struct {
	key string
	run func(inst *composer.Instance) error
}

func cpValue(key string) []byte { return []byte("value-of-" + key) }

func cpSteps(commits int) []cpStep {
	var steps []cpStep
	commitStep := func(key string) cpStep {
		return cpStep{key: key, run: func(inst *composer.Instance) error {
			tx := inst.Txn.Begin()
			if err := tx.Put([]byte(key), cpValue(key)); err != nil {
				tx.Abort()
				return err
			}
			return tx.Commit()
		}}
	}
	for i := 0; i < commits/2; i++ {
		steps = append(steps, commitStep(fmt.Sprintf("a%03d", i)))
	}
	steps = append(steps, cpStep{run: func(inst *composer.Instance) error {
		return inst.Txn.Checkpoint()
	}})
	for i := commits / 2; i < commits; i++ {
		steps = append(steps, commitStep(fmt.Sprintf("b%03d", i)))
	}
	return steps
}

// cpRunWorkload executes steps until the first error or (torn mode)
// until the tear has fired, returning the acknowledged keys. A step
// that was running when the fault fired is never acknowledged.
func cpRunWorkload(inst *composer.Instance, steps []cpStep, sched *osal.Schedule) (acked []string) {
	for _, st := range steps {
		err := st.run(inst)
		torn := sched != nil && len(sched.Injections()) > 0
		if err != nil || torn {
			return acked
		}
		if st.key != "" {
			acked = append(acked, st.key)
		}
	}
	return acked
}

// cpCheck recomposes over the crashed filesystem and checks every
// survival invariant, returning a failure description or "".
func cpCheck(fs osal.FS, acked []string, commits int) string {
	inst, err := cpCompose(fs)
	if err != nil {
		return fmt.Sprintf("recompose: %v", err)
	}
	defer inst.Close()

	// 1. No acknowledged commit lost, byte-exact.
	for _, key := range acked {
		v, err := inst.Store.Get([]byte(key))
		if err != nil {
			return fmt.Sprintf("acked commit %q lost: %v", key, err)
		}
		if string(v) != string(cpValue(key)) {
			return fmt.Sprintf("acked commit %q corrupt: %q", key, v)
		}
	}
	// 2. No key reads as garbage: unacknowledged keys are either absent
	// or hold exactly the value their commit would have written.
	for i := 0; i < commits; i++ {
		prefix := "a"
		if i >= commits/2 {
			prefix = "b"
		}
		key := fmt.Sprintf("%s%03d", prefix, i)
		v, err := inst.Store.Get([]byte(key))
		switch {
		case err == nil:
			if string(v) != string(cpValue(key)) {
				return fmt.Sprintf("key %q reads garbage %q", key, v)
			}
		case errors.Is(err, storage.ErrPageCorrupt):
			return fmt.Sprintf("key %q reads torn page: %v", key, err)
		}
		// Absent is fine for unacked keys; checked acked above.
	}
	// 3. Page trailers, journal frames and the B+-tree's structural
	// invariants scrub clean.
	rep, err := inst.Verify()
	if err != nil {
		return fmt.Sprintf("scrub: %v", err)
	}
	if !rep.Ok() {
		return fmt.Sprintf("scrub found damage: %s", rep)
	}
	return ""
}

// CrashPoints sweeps the crash harness over every write-class op index.
func CrashPoints(cfg CrashPointConfig) (*CrashPointReport, error) {
	if cfg.Commits < 4 {
		cfg.Commits = 4
	}
	rep := &CrashPointReport{Mode: "cut", Commits: cfg.Commits}
	if cfg.Torn {
		rep.Mode = "torn"
	}
	steps := cpSteps(cfg.Commits)

	// Probe run: count the clean workload's write-class ops, which is
	// the sweep width. The rule-free schedule just counts.
	probeFS := osal.NewFaultFS(osal.NewCrashFS(osal.NewMemFS()))
	inst, err := cpCompose(probeFS)
	if err != nil {
		return nil, err
	}
	probeSched := osal.NewSchedule(cfg.Seed)
	probeFS.SetSchedule(probeSched)
	for _, st := range steps {
		if err := st.run(inst); err != nil {
			inst.Close()
			return nil, fmt.Errorf("probe workload: %w", err)
		}
	}
	sweep := osal.OpAnyWrite
	if cfg.Torn {
		sweep = osal.OpWrite
	}
	rep.WriteOps = probeSched.Counts()[sweep]
	if err := inst.Close(); err != nil {
		return nil, err
	}
	if rep.WriteOps < 8 {
		return nil, fmt.Errorf("crashpoint: workload performs only %d write ops; sweep pointless", rep.WriteOps)
	}

	for i := int64(1); i <= rep.WriteOps; i++ {
		if cfg.Torn {
			fs := osal.NewFaultFS(osal.NewMemFS())
			inst, err := cpCompose(fs)
			if err != nil {
				return nil, err
			}
			// Write op i tears; the next write fails until "the power
			// returns" (schedule removed after the crash).
			sched := osal.NewSchedule(cfg.Seed + i)
			sched.Add(osal.Rule{Class: osal.OpWrite, At: i, Kind: osal.FaultTorn})
			sched.Add(osal.Rule{Class: osal.OpWrite, At: i + 1, Kind: osal.FaultError, Heal: 1 << 30})
			fs.SetSchedule(sched)
			acked := cpRunWorkload(inst, steps, sched)
			if len(sched.Injections()) > 0 {
				rep.Injected++
			}
			fs.SetSchedule(nil)
			// Crash: abandon the instance, never Close.
			if fail := cpCheck(fs, acked, cfg.Commits); fail != "" {
				rep.Failures = append(rep.Failures, fmt.Sprintf("torn@%d: %s", i, fail))
				continue
			}
		} else {
			crash := osal.NewCrashFS(osal.NewMemFS())
			fs := osal.NewFaultFS(crash)
			inst, err := cpCompose(fs)
			if err != nil {
				return nil, err
			}
			// The device dies at write-class op i and stays dead.
			fs.SetSchedule(osal.NewSchedule(0).Add(osal.Rule{Class: osal.OpAnyWrite, At: i, Kind: osal.FaultDead}))
			acked := cpRunWorkload(inst, steps, nil)
			fs.Disarm()
			// Power loss: everything unsynced vanishes; the instance is
			// abandoned, never Closed.
			if err := crash.Crash(); err != nil {
				return nil, err
			}
			if fail := cpCheck(fs, acked, cfg.Commits); fail != "" {
				rep.Failures = append(rep.Failures, fmt.Sprintf("cut@%d: %s", i, fail))
				continue
			}
		}
		rep.Recovered++
	}
	return rep, nil
}

// FormatCrashPoints renders the harness report as text.
func FormatCrashPoints(r *CrashPointReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "crash-point harness (%s): %d commits, %d write-op crash points\n",
		r.Mode, r.Commits, r.WriteOps)
	fmt.Fprintf(&b, "  recovered: %d/%d", r.Recovered, r.WriteOps)
	if r.Mode == "torn" {
		fmt.Fprintf(&b, " (tears fired: %d)", r.Injected)
	}
	fmt.Fprintln(&b)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	if r.Ok() {
		fmt.Fprintln(&b, "  all invariants held at every crash point")
	}
	return b.String()
}
