package osal

// Programmable fault schedules: a deterministic, seedable plan of
// storage faults for the FaultFS wrapper. A Schedule models the failure
// spectrum of real embedded storage — a device that dies cleanly at one
// write and stays dead, torn page writes that persist only a prefix,
// short writes, single-bit flips on the read path or at rest, and
// transient errors that heal after a few operations.
//
// Every decision a schedule makes derives from its explicit rules plus
// its seed, never from wall-clock time or map order, so a failing run
// replays exactly: the crash-point harness (internal/bench) records the
// op index of each injection and can re-arm the identical plan.

import (
	"fmt"
	"sync"
)

// OpClass classifies file operations for fault scheduling. Read-class
// operations participate too (the historic FaultFS gap): bit rot is a
// read-path phenomenon.
type OpClass int

// The op classes a schedule can target.
const (
	OpRead OpClass = iota
	OpWrite
	OpSync
	OpTruncate
	OpRemove
	OpRename
	// OpAnyWrite is a rule class, not an operation: it matches every
	// write-class operation (write, sync, truncate, remove, rename),
	// counted together.
	OpAnyWrite
)

// String returns the op-class name.
func (c OpClass) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRemove:
		return "remove"
	case OpRename:
		return "rename"
	case OpAnyWrite:
		return "any-write"
	default:
		return fmt.Sprintf("opclass(%d)", int(c))
	}
}

// FaultKind is what a schedule rule does when it fires.
type FaultKind int

const (
	// FaultError fails the operation with an injected error. With
	// Rule.Heal > 0 the error is transient (osal.ErrTransient): it
	// repeats for Heal consecutive matching operations, then the device
	// recovers on its own.
	FaultError FaultKind = iota
	// FaultTorn persists only a prefix of a WriteAt and reports full
	// success — the classic torn page write. The surviving prefix length
	// derives deterministically from the schedule seed.
	FaultTorn
	// FaultPartial persists a prefix of a WriteAt and returns the short
	// count with a transient error, like an interrupted write syscall.
	FaultPartial
	// FaultFlipRead flips one bit in the buffer returned by ReadAt and
	// reports success — bit rot surfacing on the read path. The stored
	// data is untouched.
	FaultFlipRead
	// FaultFlipAtRest lets a WriteAt succeed, then flips one bit of the
	// just-written range in the file — silent corruption at rest.
	FaultFlipAtRest
	// FaultDead kills the device: operation At and every later
	// operation of the class fail with a plain (non-transient)
	// ErrInjected until the schedule is removed. With OpAnyWrite it is
	// clean, terminal device death for crash-window sweeps; reads still
	// succeed.
	FaultDead
)

// String returns the fault-kind name.
func (k FaultKind) String() string {
	switch k {
	case FaultError:
		return "error"
	case FaultTorn:
		return "torn"
	case FaultPartial:
		return "partial"
	case FaultFlipRead:
		return "flip-read"
	case FaultFlipAtRest:
		return "flip-at-rest"
	case FaultDead:
		return "dead"
	default:
		return fmt.Sprintf("faultkind(%d)", int(k))
	}
}

// Rule is one planned fault: the At-th operation of Class (1-based,
// counted per class across all files) suffers Kind. FaultError rules
// with Heal > 0 are transient — they also fail the next Heal-1
// operations of the class, then stop; FaultDead rules never stop.
type Rule struct {
	Class OpClass
	// At is the 1-based index among operations of Class.
	At   int64
	Kind FaultKind
	// Heal makes a FaultError transient: the error repeats for Heal
	// consecutive operations of the class, then the fault heals. Zero
	// (or FaultKind != FaultError) means the single operation At fails
	// permanently-typed (plain ErrInjected).
	Heal int64
}

// Injection records one fault a schedule actually delivered, for the
// crash-point harness's bookkeeping: which op, which file, which bytes.
type Injection struct {
	// OpIndex is the per-class 1-based operation index that fired.
	OpIndex int64
	Class   OpClass
	Kind    FaultKind
	// File is the name the faulted handle was opened under.
	File string
	// Off/Len locate the affected bytes for write-path faults: the
	// surviving prefix for torn/partial writes, the flipped byte for bit
	// flips. Zero for plain errors.
	Off int64
	Len int
	// Bit is the flipped bit position within the byte at Off, for the
	// flip kinds.
	Bit int
}

// String renders the injection for logs.
func (i Injection) String() string {
	return fmt.Sprintf("%s #%d %s %s off=%d len=%d bit=%d",
		i.Class, i.OpIndex, i.Kind, i.File, i.Off, i.Len, i.Bit)
}

// Schedule is a deterministic fault plan. It is safe for concurrent
// use; the per-class operation counters are shared across every file of
// the FaultFS it is installed on.
type Schedule struct {
	mu    sync.Mutex
	seed  int64
	rules []Rule
	// counts is the per-class operation counter.
	counts map[OpClass]int64
	// injections logs every delivered fault in firing order.
	injections []Injection
}

// NewSchedule creates an empty plan. The seed drives the deterministic
// choices a rule leaves open (torn-prefix length, flipped bit), so two
// schedules with equal seeds and rules inject byte-identical faults.
func NewSchedule(seed int64) *Schedule {
	return &Schedule{seed: seed, counts: map[OpClass]int64{}}
}

// Add appends a rule and returns the schedule for chaining.
func (s *Schedule) Add(r Rule) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, r)
	return s
}

// Seed returns the schedule's seed.
func (s *Schedule) Seed() int64 { return s.seed }

// Injections returns a copy of the delivered-fault log in firing order.
func (s *Schedule) Injections() []Injection {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Injection(nil), s.injections...)
}

// Counts returns how many operations of each class the schedule has
// observed, for planning fault points; OpAnyWrite holds the total over
// the write classes.
func (s *Schedule) Counts() map[OpClass]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[OpClass]int64, len(s.counts))
	for c, n := range s.counts {
		out[c] = n
	}
	return out
}

// step consumes one operation of class and returns the matching rule,
// if any, plus the operation's per-class index. A rule counts in its
// own class, so an OpAnyWrite rule sees the write classes' total.
// Transient FaultError rules match a window [At, At+Heal), FaultDead
// rules every index from At on.
func (s *Schedule) step(class OpClass) (Rule, int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[class]++
	if class != OpRead {
		s.counts[OpAnyWrite]++
	}
	for _, r := range s.rules {
		if r.Class != class && (r.Class != OpAnyWrite || class == OpRead) {
			continue
		}
		n := s.counts[r.Class]
		var hit bool
		switch {
		case r.Kind == FaultDead:
			hit = n >= r.At
		case r.Kind == FaultError && r.Heal > 0:
			hit = n >= r.At && n < r.At+r.Heal
		default:
			hit = n == r.At
		}
		if hit {
			return r, s.counts[class], true
		}
	}
	return Rule{}, s.counts[class], false
}

// fails reports whether a matched rule fails its operation with an
// error, and whether that error is transient.
func (r Rule) fails() (fail, transient bool) {
	switch r.Kind {
	case FaultError:
		return true, r.Heal > 0
	case FaultDead:
		return true, false
	}
	return false, false
}

// record logs a delivered fault.
func (s *Schedule) record(inj Injection) {
	s.mu.Lock()
	s.injections = append(s.injections, inj)
	s.mu.Unlock()
}

// mix is a splitmix64-style hash: the deterministic entropy source for
// torn-prefix lengths and flipped-bit positions. Seed and op index in,
// uniform 64 bits out — no global RNG state, so replays agree.
func mix(seed, n int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// tornPrefix returns how many of n bytes a torn write persists: at
// least 1 and strictly less than n (for n > 1), derived from the seed.
func (s *Schedule) tornPrefix(opIndex int64, n int) int {
	if n <= 1 {
		return 0
	}
	return 1 + int(mix(s.seed, opIndex)%uint64(n-1))
}

// flipPos picks the byte offset and bit to flip within an n-byte range.
func (s *Schedule) flipPos(opIndex int64, n int) (off int, bit int) {
	if n <= 0 {
		return 0, 0
	}
	h := mix(s.seed, opIndex)
	return int(h % uint64(n)), int((h >> 32) % 8)
}
