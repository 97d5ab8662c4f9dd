// The plan cache of the CompiledQueries feature: unprepared Exec calls
// reuse compiled plans keyed on the statement's normalized shape.
//
// Normalization is lex-only — literals become `?` placeholders and the
// literal values become the bound arguments — so "SELECT * FROM t WHERE
// id = 7" and "... id = 9" share one cached plan. The cache is bounded
// (LRU per shard) and striped eight ways so concurrent Execs on
// different shapes do not contend on one lock. DDL does not flush the
// cache eagerly: kept plans pin the engine's DDL epoch and recompile
// lazily on their next execution (see prepare.go).
package sql

import (
	"container/list"
	"strings"
	"sync"

	"famedb/internal/stats"
	"famedb/internal/types"
)

// cacheShards stripes the plan cache; shard = FNV-1a(shape) % shards.
const cacheShards = 8

// planCacheEntries bounds the cache of every CompiledQueries product.
const planCacheEntries = 256

// normalize lexes a statement once into its shape — literals replaced
// by `?`, tokens joined canonically — plus the extracted literals in
// binding order. The shape is both the plan-cache key and the
// QueryStats profile key; it is empty only when the text does not lex
// (such statements fail before execution and are never profiled).
// cacheable is false when the plan cache must not keep the plan: DDL
// and EXPLAIN (caching buys nothing), statements that already contain
// placeholders (they belong to Prepare), a literal the parser would
// refuse, and anything that does not lex (let the parser produce the
// real error on the original text).
func normalize(query string) (shape string, args []types.Value, cacheable bool) {
	toks, err := lex(query)
	if err != nil {
		return "", nil, false
	}
	if len(toks) > 0 && toks[0].kind == tokKeyword {
		switch toks[0].text {
		case "SELECT", "INSERT", "UPDATE", "DELETE":
			cacheable = true
		}
	}
	nlit := 0
	for _, t := range toks {
		if t.kind == tokNumber || t.kind == tokString {
			nlit++
		}
	}
	args = make([]types.Value, 0, nlit)
	var sb strings.Builder
	sb.Grow(len(query) + len(toks)) // the shape never outgrows text plus separators
	for i, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch t.kind {
		case tokNumber:
			// Same conversion the parser applies to literals.
			v, err := numberValue(t.text)
			cacheable = cacheable && err == nil
			args = append(args, v)
			sb.WriteByte('?')
		case tokString:
			args = append(args, types.Str(t.text))
			sb.WriteByte('?')
		default:
			// An explicit placeholder passes through into the shape.
			cacheable = cacheable && t.text != "?"
			sb.WriteString(t.text)
		}
	}
	return sb.String(), args, cacheable
}

// cacheEntry is one cached compiled plan.
type cacheEntry struct {
	shape string
	plan  *compiled
}

// cacheShard is one stripe: one lock, one bounded LRU of shape →
// compiled plan.
type cacheShard struct {
	mu  sync.Mutex
	lru *list.List // front = most recent; values are *cacheEntry
	byS map[string]*list.Element
	cap int
}

// planCache is the bounded, lock-striped plan cache.
type planCache struct {
	shards [cacheShards]cacheShard
}

func newPlanCache(size int) *planCache {
	per := size / cacheShards
	if per < 1 {
		per = 1
	}
	pc := &planCache{}
	for i := range pc.shards {
		pc.shards[i] = cacheShard{lru: list.New(), byS: map[string]*list.Element{}, cap: per}
	}
	return pc
}

// shardFor picks the stripe for a shape (FNV-1a).
func (pc *planCache) shardFor(shape string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(shape); i++ {
		h ^= uint32(shape[i])
		h *= 16777619
	}
	return &pc.shards[h%cacheShards]
}

// get returns the cached plan for a shape and marks it most recent.
func (pc *planCache) get(shape string) *compiled {
	s := pc.shardFor(shape)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byS[shape]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).plan
}

// put inserts or refreshes a plan, evicting the least recently used
// entry of the stripe when full. Returns the evicted shapes so the
// caller can attribute each eviction to its shape's profile.
func (pc *planCache) put(shape string, c *compiled) (evicted []string) {
	s := pc.shardFor(shape)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byS[shape]; ok {
		el.Value.(*cacheEntry).plan = c
		s.lru.MoveToFront(el)
		return nil
	}
	s.byS[shape] = s.lru.PushFront(&cacheEntry{shape: shape, plan: c})
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		s.lru.Remove(back)
		victim := back.Value.(*cacheEntry).shape
		delete(s.byS, victim)
		evicted = append(evicted, victim)
	}
	return evicted
}

// peek reports whether a shape is cached, without touching LRU order or
// the hit/miss counters (EXPLAIN provenance).
func (pc *planCache) peek(shape string) bool {
	s := pc.shardFor(shape)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.byS[shape]
	return ok
}

// len reports the number of cached plans (for tests).
func (pc *planCache) len() int {
	n := 0
	for i := range pc.shards {
		s := &pc.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// execCached runs a cacheable statement, given as its shape and
// arguments, through the plan cache. handled is false when the shape
// does not parse and Exec should build a one-shot plan instead.
func (e *Engine) execCached(shape string, args []types.Value) (res *Result, handled bool, err error) {
	m := e.cfg.Metrics
	q := e.cfg.Query
	if c := e.cache.get(shape); c != nil {
		m.Add(stats.SQLPlanHits, 1)
		q.CacheHit(shape)
		res, err = e.runCompiled(c, args, func(nc *compiled) {
			e.recordEvicts(e.cache.put(shape, nc))
		})
		return res, true, err
	}
	m.Add(stats.SQLPlanMisses, 1)
	q.CacheMiss(shape)
	stmt, _, perr := parse(shape)
	if perr != nil {
		// The shape does not parse (so the original cannot either); let
		// Exec report the error against the user's text.
		return nil, false, nil
	}
	if _, verr := stmtVerb(stmt); verr != nil {
		return nil, false, nil
	}
	// Compile under the read latch (compilation resolves the catalog),
	// then publish and run. Compile errors (unknown table/column, type
	// conflicts) are real statement errors — report them.
	e.readLatch()
	c, cerr := e.compileRead(stmt)
	e.readUnlatch()
	if cerr != nil {
		return nil, true, cerr
	}
	c.shape = shape
	e.recordEvicts(e.cache.put(shape, c))
	res, err = e.runCompiled(c, args, func(nc *compiled) {
		e.recordEvicts(e.cache.put(shape, nc))
	})
	return res, true, err
}

// recordEvicts feeds cache evictions into the statistics feature —
// both the global counter and each victim shape's profile, so the
// global total always equals the per-shape sum.
func (e *Engine) recordEvicts(shapes []string) {
	for _, sh := range shapes {
		e.cfg.Metrics.Add(stats.SQLPlanEvictions, 1)
		e.cfg.Query.CacheEvict(sh)
	}
}

// CacheLen reports the number of cached plans; 0 without the
// CompiledQueries feature. Exposed for tests and the shell.
func (e *Engine) CacheLen() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.len()
}
