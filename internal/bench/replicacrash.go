package bench

// The replica crash-point harness (B10's crash side).
//
// ReplicaCrashPoints kills a replica at EVERY shipped-frame boundary
// (power-cut model: unsynced state reverts) and, in torn mode, at every
// device write op with a torn tail (most-persisted model). After each
// kill the replica is recomposed over the crashed filesystem, ordinary
// redo recovery runs, and the invariants are checked: the recovered log
// is a byte-exact prefix of the primary's (CRC over [0,end)), an
// incremental catch-up from that offset converges to the primary's full
// log, the replicated index equals the primary's pair for pair, and the
// page/journal scrub comes back clean.

import (
	"fmt"
	"strings"

	"famedb/internal/composer"
	"famedb/internal/osal"
	"famedb/internal/repl"
)

// ReplicaCrashConfig fixes the crash sweep scenario.
type ReplicaCrashConfig struct {
	// Commits is the number of committed transactions the primary ships
	// (each becomes at least one frame boundary).
	Commits int
	// Torn selects the torn-write sweep over every device write op
	// instead of the power-cut sweep over every frame boundary.
	Torn bool
	// Seed drives the torn-prefix lengths for exact replay.
	Seed int64
}

// ReplicaCrashReport is the sweep outcome.
type ReplicaCrashReport struct {
	Mode    string `json:"mode"` // "boundary" or "torn"
	Commits int    `json:"commits"`
	// Chunks is the number of shipped frames the primary produced.
	Chunks int `json:"chunks"`
	// Points is the number of crash points swept.
	Points int `json:"points"`
	// Recovered counts points where every invariant held after the
	// kill: byte-exact prefix, clean catch-up, equal indexes, clean
	// scrub.
	Recovered int `json:"recovered"`
	// Injected counts torn points whose tear actually fired.
	Injected int `json:"injected"`
	// Failures lists invariant violations, one line per failed point.
	Failures []string `json:"failures,omitempty"`
}

// Ok reports whether every crash point recovered.
func (r *ReplicaCrashReport) Ok() bool { return len(r.Failures) == 0 }

// rcpFeatures is the harnessed node: transactional with Recovery (the
// redo path the applier shares) and Checksums (so torn pages surface as
// typed corruption). Replication itself is not composed — the harness
// drives the ship applier directly, standing in for the network layer.
var rcpFeatures = []string{
	"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
	"Put", "Get", "Remove", "Transaction", "Recovery", "Checksums",
}

func rcpCompose(fs osal.FS) (*composer.Instance, error) {
	return composer.ComposeProduct(composer.Options{
		FS: fs,
		// A tiny cache forces evictions, so replica index pages land on
		// the device inside the crash windows, not only at close.
		CachePages: 4,
	}, rcpFeatures...)
}

// rcpChunk is one shipped frame: the raw bytes of one durable primary
// append at its log offset.
type rcpChunk struct {
	base int64
	buf  []byte
}

// rcpPrimary builds the shipping primary: a workload of puts and
// removes, every durable append captured as a chunk.
func rcpPrimary(commits int) (*composer.Instance, []rcpChunk, error) {
	inst, err := rcpCompose(osal.NewMemFS())
	if err != nil {
		return nil, nil, err
	}
	var chunks []rcpChunk
	inst.Txn.SetOnShip(func(base int64, buf []byte) {
		chunks = append(chunks, rcpChunk{base, append([]byte(nil), buf...)})
	})
	for i := 0; i < commits; i++ {
		tx := inst.Txn.Begin()
		key := fmt.Appendf(nil, "k%04d", i)
		if err := tx.Put(key, fmt.Appendf(nil, "value-of-k%04d", i)); err != nil {
			inst.Close()
			return nil, nil, err
		}
		// Every fourth transaction also retracts an earlier key, so the
		// replayed stream exercises the remove path.
		if i%4 == 3 {
			if err := tx.Remove(fmt.Appendf(nil, "k%04d", i-2)); err != nil {
				inst.Close()
				return nil, nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			inst.Close()
			return nil, nil, err
		}
	}
	return inst, chunks, nil
}

// rcpCheck verifies a recovered replica against the primary: byte-exact
// prefix at its recovered end, catch-up convergence to the full log,
// index equality, and a clean scrub. Returns a failure description or "".
func rcpCheck(primary *composer.Instance, fs osal.FS) string {
	inst, err := rcpCompose(fs)
	if err != nil {
		return fmt.Sprintf("recompose: %v", err)
	}
	defer inst.Close()
	ap := inst.Txn.ShipApplier()
	if ap.NeedsResync() {
		return "recovered replica demands a snapshot resync (marker left behind)"
	}
	end, crc, err := ap.PrefixCRC()
	if err != nil {
		return fmt.Sprintf("replica prefix crc: %v", err)
	}
	walEnd := primary.Txn.WALEnd()
	if end > walEnd {
		return fmt.Sprintf("replica log end %d past primary end %d", end, walEnd)
	}
	pcrc, err := primary.Txn.WALPrefixCRC(end)
	if err != nil {
		return fmt.Sprintf("primary prefix crc at %d: %v", end, err)
	}
	if crc != pcrc {
		return fmt.Sprintf("recovered log is not a byte-exact primary prefix at %d", end)
	}
	// Incremental catch-up from exactly where recovery left the log —
	// the reconnect handshake's happy path.
	if end < walEnd {
		buf, err := primary.Txn.ReadWALRange(end, walEnd)
		if err != nil {
			return fmt.Sprintf("catch-up read [%d,%d): %v", end, walEnd, err)
		}
		if err := ap.Apply(end, buf); err != nil {
			return fmt.Sprintf("catch-up apply at %d: %v", end, err)
		}
	}
	end2, crc2, err := ap.PrefixCRC()
	if err != nil {
		return fmt.Sprintf("caught-up prefix crc: %v", err)
	}
	fullCRC, err := primary.Txn.WALPrefixCRC(walEnd)
	if err != nil {
		return fmt.Sprintf("primary full crc: %v", err)
	}
	if end2 != walEnd || crc2 != fullCRC {
		return fmt.Sprintf("catch-up did not converge: end %d of %d", end2, walEnd)
	}
	if err := repl.VerifyIndexes(primary.Store.Index(), inst.Store.Index()); err != nil {
		return fmt.Sprintf("replicated index verify: %v", err)
	}
	rep, err := inst.Verify()
	if err != nil {
		return fmt.Sprintf("scrub: %v", err)
	}
	if !rep.Ok() {
		return fmt.Sprintf("scrub found damage: %s", rep)
	}
	return ""
}

// ReplicaCrashPoints sweeps replica kills across the shipped stream.
//
// Boundary mode composes a replica over a crash-consistent filesystem,
// applies the first i chunks, then pulls the power (everything unsynced
// reverts — the applier's own WAL syncs are all that survive) for every
// i in [0, chunks]. Torn mode instead schedules a torn write at every
// device write op the full apply performs, so the kill lands INSIDE an
// apply and recovery must truncate the torn tail back to a frame
// boundary.
func ReplicaCrashPoints(cfg ReplicaCrashConfig) (*ReplicaCrashReport, error) {
	if cfg.Commits < 8 {
		cfg.Commits = 8
	}
	rep := &ReplicaCrashReport{Mode: "boundary", Commits: cfg.Commits}
	if cfg.Torn {
		rep.Mode = "torn"
	}
	primary, chunks, err := rcpPrimary(cfg.Commits)
	if err != nil {
		return nil, err
	}
	defer primary.Close()
	rep.Chunks = len(chunks)
	if len(chunks) < cfg.Commits {
		return nil, fmt.Errorf("replica crashpoints: only %d chunks shipped for %d commits", len(chunks), cfg.Commits)
	}

	if !cfg.Torn {
		for i := 0; i <= len(chunks); i++ {
			rep.Points++
			crash := osal.NewCrashFS(osal.NewMemFS())
			inst, err := rcpCompose(crash)
			if err != nil {
				return nil, err
			}
			ap := inst.Txn.ShipApplier()
			applyErr := ""
			for _, c := range chunks[:i] {
				if err := ap.Apply(c.base, c.buf); err != nil {
					applyErr = fmt.Sprintf("apply at %d: %v", c.base, err)
					break
				}
			}
			// Power loss: unsynced state reverts, the instance is
			// abandoned, never Closed.
			if err := crash.Crash(); err != nil {
				return nil, err
			}
			if applyErr == "" {
				applyErr = rcpCheck(primary, crash)
			}
			if applyErr != "" {
				rep.Failures = append(rep.Failures, fmt.Sprintf("boundary@%d: %s", i, applyErr))
				continue
			}
			rep.Recovered++
		}
		return rep, nil
	}

	// Probe run: count the device write ops one full clean apply
	// performs — the torn sweep's width.
	probeFS := osal.NewFaultFS(osal.NewMemFS())
	inst, err := rcpCompose(probeFS)
	if err != nil {
		return nil, err
	}
	probeSched := osal.NewSchedule(cfg.Seed)
	probeFS.SetSchedule(probeSched)
	ap := inst.Txn.ShipApplier()
	for _, c := range chunks {
		if err := ap.Apply(c.base, c.buf); err != nil {
			inst.Close()
			return nil, fmt.Errorf("probe apply at %d: %w", c.base, err)
		}
	}
	writeOps := probeSched.Counts()[osal.OpWrite]
	if err := inst.Close(); err != nil {
		return nil, err
	}
	if writeOps < 8 {
		return nil, fmt.Errorf("replica crashpoints: full apply performs only %d write ops; sweep pointless", writeOps)
	}

	for t := int64(1); t <= writeOps; t++ {
		rep.Points++
		fs := osal.NewFaultFS(osal.NewMemFS())
		inst, err := rcpCompose(fs)
		if err != nil {
			return nil, err
		}
		// Write op t tears; every later write fails until "the power
		// returns" (schedule removed after the crash).
		sched := osal.NewSchedule(cfg.Seed + t)
		sched.Add(osal.Rule{Class: osal.OpWrite, At: t, Kind: osal.FaultTorn})
		sched.Add(osal.Rule{Class: osal.OpWrite, At: t + 1, Kind: osal.FaultError, Heal: 1 << 30})
		fs.SetSchedule(sched)
		ap := inst.Txn.ShipApplier()
		for _, c := range chunks {
			if err := ap.Apply(c.base, c.buf); err != nil {
				break
			}
			if len(sched.Injections()) > 0 {
				break
			}
		}
		if len(sched.Injections()) > 0 {
			rep.Injected++
		}
		fs.SetSchedule(nil)
		// Crash: abandon the instance, never Close.
		if fail := rcpCheck(primary, fs); fail != "" {
			rep.Failures = append(rep.Failures, fmt.Sprintf("torn@%d: %s", t, fail))
			continue
		}
		rep.Recovered++
	}
	return rep, nil
}

// FormatReplicaCrashPoints renders the sweep report as text.
func FormatReplicaCrashPoints(r *ReplicaCrashReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "replica crash-point harness (%s): %d commits shipped as %d frames, %d kill points\n",
		r.Mode, r.Commits, r.Chunks, r.Points)
	fmt.Fprintf(&b, "  recovered byte-exact and caught up: %d/%d", r.Recovered, r.Points)
	if r.Mode == "torn" {
		fmt.Fprintf(&b, " (tears fired: %d)", r.Injected)
	}
	fmt.Fprintln(&b)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	if r.Ok() {
		fmt.Fprintln(&b, "  every kill recovered to a byte-exact prefix and converged")
	}
	return b.String()
}
