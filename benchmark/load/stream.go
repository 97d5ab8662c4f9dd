package load

import "sync/atomic"

// Kind is an operation class; latencies are reported per class.
type Kind uint8

const (
	Read  Kind = iota // point read: Get, point SELECT
	Write             // acknowledged write: Put, Update, UPDATE
	Scan              // range read: Scan, range SELECT
	NKinds
)

func (k Kind) String() string { return [...]string{"read", "write", "scan"}[k] }

// Op is one request of a client's stream. What ID means depends on the
// workload's Mix: a record id, or for Fresh writes and ReadBack reads a
// value resolved against the client's own progress when the op is
// issued.
type Op struct {
	Kind Kind
	// Path picks among equivalent ways to issue the op (embed_sql_mix:
	// 0 prepared statement, 1 SQL text).
	Path uint8
	// Len is the number of rows a Scan asks for.
	Len uint16
	ID  uint32
}

// Mix describes a workload's traffic: shares in percent, the key
// distribution, and how writes pick keys.
type Mix struct {
	ReadPct, ScanPct int // the rest are writes
	// TextReadPct is the share of all ops that are reads issued as SQL
	// text (Path 1); it is part of ReadPct.
	TextReadPct int
	// Records is the preloaded id space reads and scans draw from.
	Records uint32
	// Zipf draws ids with theta 0.99 instead of uniformly.
	Zipf bool
	// MaxScan is the longest scan; lengths are uniform in [1, MaxScan].
	MaxScan int
	// Fresh makes every write create a new key (ID is unused); otherwise
	// a write overwrites a preloaded id from the client's own partition.
	Fresh bool
	// ReadBack makes reads target a key the same client wrote earlier
	// (ID is a random draw reduced modulo the client's acked count).
	ReadBack bool
}

// Stream is one client's pre-generated request sequence. A client that
// exhausts it starts over, which repeats the same distribution.
type Stream struct {
	Ops []Op
}

// Streams generates one stream per client from the seed. Overwrites are
// partitioned: client c only writes ids congruent to c modulo the
// client count, so each key has one writer and its sequence numbers are
// acknowledged in order.
func Streams(seed uint64, clients, opsPerClient int, m Mix) []Stream {
	var z *Zipf
	if m.Zipf {
		z = NewZipf(uint64(m.Records), 0.99)
	}
	out := make([]Stream, clients)
	for c := range out {
		r := NewRand(fnv64(seed)*uint64(clients+1) + uint64(c))
		draw := func() uint32 {
			if z != nil {
				return uint32(z.Next(r))
			}
			return uint32(r.Intn(uint64(m.Records)))
		}
		ops := make([]Op, opsPerClient)
		for i := range ops {
			p := int(r.Intn(100))
			switch {
			case p < m.ReadPct:
				op := Op{Kind: Read}
				if p < m.TextReadPct {
					op.Path = 1
				}
				if m.ReadBack {
					op.ID = uint32(r.Uint64())
				} else {
					op.ID = draw()
				}
				ops[i] = op
			case p < m.ReadPct+m.ScanPct:
				ops[i] = Op{Kind: Scan, ID: draw(), Len: uint16(1 + r.Intn(uint64(m.MaxScan)))}
			default:
				op := Op{Kind: Write}
				if !m.Fresh {
					id := draw()
					id = id - id%uint32(clients) + uint32(c)
					if id >= m.Records {
						id -= uint32(clients)
					}
					op.ID = id
				}
				ops[i] = op
			}
		}
		out[c] = Stream{Ops: ops}
	}
	return out
}

// Hash fingerprints the streams: same seed, same hash.
func Hash(streams []Stream) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for _, s := range streams {
		for _, op := range s.Ops {
			mix(uint64(op.Kind) | uint64(op.Path)<<8 | uint64(op.Len)<<16 | uint64(op.ID)<<32)
		}
	}
	return h
}

// Shadow is the oracle: what the clients know must be in the store.
// Preloaded records carry a sequence number per id; fresh keys are
// counted per client. A key has one writer, so its writer updates
// Issued without synchronization and publishes Acked atomically for the
// readers.
type Shadow struct {
	acked  []atomic.Uint32
	issued []uint32
	fresh  []atomic.Uint64
}

// NewShadow tracks records preloaded ids and clients append counters.
func NewShadow(records uint32, clients int) *Shadow {
	return &Shadow{
		acked:  make([]atomic.Uint32, records),
		issued: make([]uint32, records),
		fresh:  make([]atomic.Uint64, clients),
	}
}

// NextSeq is the sequence number for the writer's next overwrite of id.
func (s *Shadow) NextSeq(id uint32) uint32 {
	s.issued[id]++
	return s.issued[id]
}

// Ack records that the overwrite of id with seq was acknowledged.
func (s *Shadow) Ack(id, seq uint32) { s.acked[id].Store(seq) }

// Acked is the newest acknowledged sequence number of id; a read
// issued now must return at least this.
func (s *Shadow) Acked(id uint32) uint32 { return s.acked[id].Load() }

// Issued is the newest sequence number handed out for id; a read can
// never return more. Only meaningful once the writer is quiescent or to
// the writer itself.
func (s *Shadow) Issued(id uint32) uint32 { return s.issued[id] }

// Forget lowers id's state to seq: the durability window lost the
// writes after it in a power cut.
func (s *Shadow) Forget(id, seq uint32) {
	s.issued[id] = seq
	s.acked[id].Store(seq)
}

// Fresh is how many fresh keys of client c have been acknowledged.
func (s *Shadow) Fresh(c int) uint64 { return s.fresh[c].Load() }

// AckFresh records one more acknowledged fresh key of client c.
func (s *Shadow) AckFresh(c int) { s.fresh[c].Add(1) }

// Records is the number of preloaded ids.
func (s *Shadow) Records() uint32 { return uint32(len(s.acked)) }
