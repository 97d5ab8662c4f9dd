// Package access is the Access feature of FAME-DBMS (Fig. 2): the
// low-level record API with the four operations put, get, remove and
// update, each an individually selectable feature. A derived product
// contains only the operations its configuration selected; calling an
// absent operation returns ErrNotComposed — the Go analog of code that
// was never composed into the FeatureC++ binary.
package access

import (
	"errors"
	"fmt"

	"famedb/internal/index"
	"famedb/internal/stats"
	"famedb/internal/trace"
)

// ErrNotComposed is returned by operations whose feature is not part of
// the derived product.
var ErrNotComposed = errors.New("access: operation not composed into this product")

// ErrNotFound is returned by Get for missing keys and by Update/Remove
// when the key does not exist.
var ErrNotFound = errors.New("access: key not found")

// Ops selects the access operations composed into the product.
type Ops struct {
	Put, Get, Remove, Update bool
}

// AllOps selects every access operation.
func AllOps() Ops { return Ops{Put: true, Get: true, Remove: true, Update: true} }

// Store is the record store of a derived product: an index plus the
// composed operation set.
type Store struct {
	idx index.Seam
	ops Ops
	// metrics observes per-operation latency when the Statistics feature
	// is composed; nil otherwise (recording is then a no-op).
	metrics *stats.Registry
	// tracer records record operations as spans when the Tracing
	// feature is composed; nil otherwise. Each operation's In variant
	// takes the caller's span as parent; the plain method is the same
	// body with a nil parent, i.e. a root.
	tracer *trace.Tracer
}

// SetMetrics attaches the Statistics feature's record-access metrics.
func (s *Store) SetMetrics(m *stats.Registry) { s.metrics = m }

// SetTracer attaches the Tracing feature's span recorder.
func (s *Store) SetTracer(t *trace.Tracer) { s.tracer = t }

// New composes a store from an index and an operation selection.
func New(idx index.Index, ops Ops) *Store {
	return &Store{idx: index.SeamOf(idx), ops: ops}
}

// Index returns the underlying index (used by the SQL engine and the
// maintenance features).
func (s *Store) Index() index.Index { return s.idx.Index }

// IndexSeam returns the index bound for span-holding callers: the
// transaction manager and the SQL engine, which apply writes and probe
// keys below the record API.
func (s *Store) IndexSeam() index.Seam { return s.idx }

// Ops returns the composed operation set.
func (s *Store) Ops() Ops { return s.ops }

// Put stores value under key, replacing any existing value (feature
// Put).
func (s *Store) Put(key, value []byte) error { return s.PutIn(nil, key, value) }

// PutIn is Put recorded under the caller's span.
func (s *Store) PutIn(parent *trace.Span, key, value []byte) error {
	if !s.ops.Put {
		return fmt.Errorf("Put: %w", ErrNotComposed)
	}
	sp := s.tracer.Start(parent, trace.LayerAccess, "put")
	start := s.metrics.Start()
	err := s.idx.InsertIn(sp, key, value)
	s.metrics.Done(stats.AccessPutLatency, start)
	sp.Fail(err)
	sp.End()
	return err
}

// Get returns the value under key (feature Get). Missing keys return
// ErrNotFound.
func (s *Store) Get(key []byte) ([]byte, error) { return s.GetIn(nil, key) }

// GetIn is Get recorded under the caller's span.
func (s *Store) GetIn(parent *trace.Span, key []byte) ([]byte, error) {
	if !s.ops.Get {
		return nil, fmt.Errorf("Get: %w", ErrNotComposed)
	}
	sp := s.tracer.Start(parent, trace.LayerAccess, "get")
	start := s.metrics.Start()
	v, found, err := s.idx.GetIn(sp, key)
	s.metrics.Done(stats.AccessGetLatency, start)
	sp.Fail(err)
	sp.End()
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("access: %q: %w", key, ErrNotFound)
	}
	return v, nil
}

// Remove deletes key (feature Remove). Missing keys return ErrNotFound.
func (s *Store) Remove(key []byte) error { return s.RemoveIn(nil, key) }

// RemoveIn is Remove recorded under the caller's span.
func (s *Store) RemoveIn(parent *trace.Span, key []byte) error {
	if !s.ops.Remove {
		return fmt.Errorf("Remove: %w", ErrNotComposed)
	}
	sp := s.tracer.Start(parent, trace.LayerAccess, "remove")
	deleted, err := s.idx.DeleteIn(sp, key)
	sp.Fail(err)
	sp.End()
	if err != nil {
		return err
	}
	if !deleted {
		return fmt.Errorf("access: %q: %w", key, ErrNotFound)
	}
	return nil
}

// Update replaces the value of an existing key (feature Update).
// Missing keys return ErrNotFound.
func (s *Store) Update(key, value []byte) error { return s.UpdateIn(nil, key, value) }

// UpdateIn is Update recorded under the caller's span.
func (s *Store) UpdateIn(parent *trace.Span, key, value []byte) error {
	if !s.ops.Update {
		return fmt.Errorf("Update: %w", ErrNotComposed)
	}
	sp := s.tracer.Start(parent, trace.LayerAccess, "update")
	ok, err := s.idx.UpdateIn(sp, key, value)
	sp.Fail(err)
	sp.End()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("access: %q: %w", key, ErrNotFound)
	}
	return nil
}

// Scan visits entries in [from, to) (requires feature Get: scanning is
// reading).
func (s *Store) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	return s.ScanIn(nil, from, to, fn)
}

// ScanIn is Scan recorded under the caller's span.
func (s *Store) ScanIn(parent *trace.Span, from, to []byte, fn func(key, value []byte) bool) error {
	if !s.ops.Get {
		return fmt.Errorf("Scan: %w", ErrNotComposed)
	}
	sp := s.tracer.Start(parent, trace.LayerAccess, "scan")
	err := s.idx.ScanIn(sp, from, to, fn)
	sp.Fail(err)
	sp.End()
	return err
}

// Len returns the number of stored records.
func (s *Store) Len() (uint64, error) { return s.idx.Len() }
