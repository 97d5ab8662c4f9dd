package bdb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"famedb/internal/core"
	"famedb/internal/osal"
)

// allFeatures is Figure 1's configuration 1.
func allFeatures() []string { return core.BDBOptionalFeatures() }

func openEnv(t *testing.T, cfg Config) *Env {
	t.Helper()
	if cfg.FS == nil {
		cfg.FS = osal.NewMemFS()
	}
	if cfg.pageSize == 0 {
		cfg.pageSize = 512
	}
	if len(cfg.Passphrase) == 0 {
		cfg.Passphrase = []byte("test-passphrase")
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMinimalProductPutGet(t *testing.T) {
	// Figure 1 configuration 7: minimal composed product using B-tree.
	e := openEnv(t, Config{Mode: core.ModeComposed, Features: []string{"Btree"}})
	db, err := e.CreateDB("main", MethodBtree)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, found, err := db.Get([]byte("k"))
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, found, err)
	}
	ok, err := db.Delete([]byte("k"))
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureSelectionValidatedAgainstModel(t *testing.T) {
	// Unknown feature name.
	if _, err := Open(Config{FS: osal.NewMemFS(), Features: []string{"Btree", "Nonsense"}}); err == nil {
		t.Fatal("unknown feature should fail")
	}
	// Model completion: Transactions pulls in Logging and Locking.
	e := openEnv(t, Config{Features: []string{"Btree", "Transactions"}})
	if !e.has("Logging") || !e.has("Locking") {
		t.Fatal("feature-model completion did not pull in Logging/Locking")
	}
}

func TestAccessMethodGating(t *testing.T) {
	e := openEnv(t, Config{Features: []string{"Btree"}})
	if _, err := e.CreateDB("h", MethodHash); !errors.Is(err, ErrFeature) {
		t.Fatalf("Hash without feature = %v", err)
	}
	if _, err := e.CreateDB("q", MethodQueue); !errors.Is(err, ErrFeature) {
		t.Fatalf("Queue without feature = %v", err)
	}
}

func TestHashMethod(t *testing.T) {
	e := openEnv(t, Config{Features: []string{"Hash", "Verify", "Locking"}})
	db, err := e.CreateDB("h", MethodHash)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		v, found, err := db.Get([]byte(fmt.Sprintf("key-%03d", i)))
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = %q, %v, %v", i, v, found, err)
		}
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Overwrite and delete.
	db.Put([]byte("key-000"), []byte("replaced"))
	v, _, _ := db.Get([]byte("key-000"))
	if string(v) != "replaced" {
		t.Fatalf("overwrite = %q", v)
	}
	ok, err := db.Delete([]byte("key-001"))
	if err != nil || !ok {
		t.Fatal("delete failed")
	}
	if n, _ := db.Len(); n != 299 {
		t.Fatalf("Len = %d", n)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify after mutations: %v", err)
	}
}

func TestQueueMethod(t *testing.T) {
	e := openEnv(t, Config{Features: []string{"Queue", "Btree", "Locking", "Verify"}})
	q, err := e.CreateDB("q", MethodQueue)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		seq, err := q.Enqueue([]byte(fmt.Sprintf("msg-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := q.Verify(); err != nil {
		t.Fatalf("queue verify: %v", err)
	}
	if rec, ok, _ := q.Peek(); !ok || string(rec) != "msg-000" {
		t.Fatalf("Peek = %q, %v", rec, ok)
	}
	for i := 0; i < 100; i++ {
		rec, ok, err := q.Dequeue()
		if err != nil || !ok || string(rec) != fmt.Sprintf("msg-%03d", i) {
			t.Fatalf("Dequeue %d = %q, %v, %v", i, rec, ok, err)
		}
	}
	if _, ok, _ := q.Dequeue(); ok {
		t.Fatal("empty queue dequeued")
	}
	// Refill after drain works (page recycling).
	for i := 0; i < 50; i++ {
		q.Enqueue([]byte("again"))
	}
	if n, _ := q.Len(); n != 50 {
		t.Fatalf("Len = %d", n)
	}
	if err := q.Verify(); err != nil {
		t.Fatalf("queue verify after refill: %v", err)
	}
	// KV ops rejected on queues.
	if err := q.Put([]byte("k"), []byte("v")); err == nil {
		t.Fatal("Put on queue should fail")
	}
}

func TestRecnoMethod(t *testing.T) {
	e := openEnv(t, Config{Features: []string{"Recno"}})
	db, err := e.CreateDB("r", MethodRecno)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		n, err := db.Append([]byte(fmt.Sprintf("rec%d", i)))
		if err != nil || n != uint64(i) {
			t.Fatalf("Append = %d, %v", n, err)
		}
	}
	v, found, err := db.GetRecno(7)
	if err != nil || !found || string(v) != "rec7" {
		t.Fatalf("GetRecno = %q, %v, %v", v, found, err)
	}
}

func TestCryptoEncryptsPages(t *testing.T) {
	fs := osal.NewMemFS()
	e := openEnv(t, Config{FS: fs, Features: []string{"Btree", "Crypto"}, Passphrase: []byte("secret")})
	db, _ := e.CreateDB("main", MethodBtree)
	secret := bytes.Repeat([]byte("TOPSECRET-"), 10)
	db.Put([]byte("classified"), secret)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// The raw file must not contain the plaintext.
	f, _ := fs.Open(dataFileName)
	size, _ := f.Size()
	raw := make([]byte, size)
	f.ReadAt(raw, 0)
	if bytes.Contains(raw, []byte("TOPSECRET")) {
		t.Fatal("plaintext leaked to disk with Crypto enabled")
	}
	if bytes.Contains(raw, []byte("classified")) {
		t.Fatal("key plaintext leaked to disk with Crypto enabled")
	}

	// Reopen with the right passphrase: data intact.
	e2 := openEnv(t, Config{FS: fs, Features: []string{"Btree", "Crypto"}, Passphrase: []byte("secret")})
	db2, err := e2.OpenDB("main")
	if err != nil {
		t.Fatal(err)
	}
	v, found, err := db2.Get([]byte("classified"))
	if err != nil || !found || !bytes.Equal(v, secret) {
		t.Fatalf("decrypt read = %v, %v", found, err)
	}
	e2.Close()

	// Wrong passphrase: unreadable.
	if e3, err := Open(Config{FS: fs, pageSize: 512, Features: []string{"Btree", "Crypto"}, Passphrase: []byte("WRONG")}); err == nil {
		if _, oerr := e3.OpenDB("main"); oerr == nil {
			t.Fatal("wrong passphrase opened the database")
		}
	}
}

func TestWithoutCryptoPlaintextOnDisk(t *testing.T) {
	fs := osal.NewMemFS()
	e := openEnv(t, Config{FS: fs, Features: []string{"Btree"}})
	db, _ := e.CreateDB("main", MethodBtree)
	db.Put([]byte("needle"), []byte("PLAINVALUE"))
	e.Close()
	f, _ := fs.Open(dataFileName)
	size, _ := f.Size()
	raw := make([]byte, size)
	f.ReadAt(raw, 0)
	if !bytes.Contains(raw, []byte("PLAINVALUE")) {
		t.Fatal("expected plaintext on disk without Crypto")
	}
}

func TestTransactionsCommitAbort(t *testing.T) {
	e := openEnv(t, Config{Features: []string{"Btree", "Transactions"}})
	db, _ := e.CreateDB("main", MethodBtree)
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.Put(db, []byte("a"), []byte("1"))
	tx.Put(db, []byte("b"), []byte("2"))
	if v, err := tx.Get(db, []byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("tx read-your-writes = %q, %v", v, err)
	}
	if _, found, _ := db.Get([]byte("a")); found {
		t.Fatal("uncommitted write visible")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := db.Get([]byte("a")); !found {
		t.Fatal("committed write invisible")
	}

	tx2, _ := e.Begin()
	tx2.Delete(db, []byte("a"))
	tx2.Abort()
	if _, found, _ := db.Get([]byte("a")); !found {
		t.Fatal("aborted delete applied")
	}
}

func TestRecoveryAfterCrash(t *testing.T) {
	fs := osal.NewMemFS()
	feats := []string{"Btree", "Transactions", "Recovery", "Checkpoint"}
	e := openEnv(t, Config{FS: fs, Features: feats})
	db, _ := e.CreateDB("main", MethodBtree)
	db.Put([]byte("before"), []byte("checkpoint"))
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("after"), []byte("crash"))
	// Crash: abandon the env without Close/Sync. The page cache holds
	// the 'after' write; only the journal has it durably.
	_ = e

	e2 := openEnv(t, Config{FS: fs, Features: feats})
	db2, err := e2.OpenDB("main")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"before", "after"} {
		if _, found, err := db2.Get([]byte(k)); err != nil || !found {
			t.Fatalf("key %q lost after crash recovery (%v)", k, err)
		}
	}
}

func TestStatisticsFeature(t *testing.T) {
	e := openEnv(t, Config{Features: []string{"Btree", "Statistics"}})
	db, _ := e.CreateDB("main", MethodBtree)
	db.Put([]byte("k"), []byte("v"))
	db.Get([]byte("k"))
	db.Get([]byte("k"))
	db.Delete([]byte("k"))
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Puts != 1 || st.Gets != 2 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Without the feature the call is not composed.
	e2 := openEnv(t, Config{Features: []string{"Btree"}})
	if _, err := e2.Stats(); !errors.Is(err, ErrFeature) {
		t.Fatalf("Stats without feature = %v", err)
	}
}

func TestCursorsAndJoin(t *testing.T) {
	e := openEnv(t, Config{Features: []string{"Btree", "Cursors", "Join"}})
	db, _ := e.CreateDB("main", MethodBtree)
	for _, k := range []string{"a", "b", "c", "d"} {
		db.Put([]byte(k), []byte("v-"+k))
	}
	c, err := db.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	k, v, ok := c.First()
	if !ok || string(k) != "a" || string(v) != "v-a" {
		t.Fatalf("First = %q,%q,%v", k, v, ok)
	}
	k, _, _ = c.Next()
	if string(k) != "b" {
		t.Fatalf("Next = %q", k)
	}
	k, _, _ = c.Seek([]byte("c"))
	if string(k) != "c" {
		t.Fatalf("Seek = %q", k)
	}
	k, _, _ = c.Prev()
	if string(k) != "b" {
		t.Fatalf("Prev = %q", k)
	}
	if _, _, ok := c.Seek([]byte("zz")); ok {
		t.Fatal("Seek past end should report false")
	}

	other, _ := e.CreateDB("other", MethodBtree)
	other.Put([]byte("b"), []byte("x"))
	other.Put([]byte("c"), []byte("y"))
	other.Put([]byte("q"), []byte("z"))
	keys, err := e.Join(db, other)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || string(keys[0]) != "b" || string(keys[1]) != "c" {
		t.Fatalf("Join = %q", keys)
	}
}

func TestJoinRequiresCursorsConstraint(t *testing.T) {
	// Selecting Join pulls Cursors in via the feature model.
	e := openEnv(t, Config{Features: []string{"Btree", "Join"}})
	if !e.has("Cursors") {
		t.Fatal("Join => Cursors constraint not applied")
	}
}

func TestBulkOps(t *testing.T) {
	e := openEnv(t, Config{Features: []string{"Btree", "BulkOps"}})
	db, _ := e.CreateDB("main", MethodBtree)
	kvs := []KV{{[]byte("a"), []byte("1")}, {[]byte("b"), []byte("2")}}
	if err := db.BulkPut(kvs); err != nil {
		t.Fatal(err)
	}
	got, err := db.BulkGet([][]byte{[]byte("a"), []byte("missing"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "1" || got[1] != nil || string(got[2]) != "2" {
		t.Fatalf("BulkGet = %q", got)
	}
}

func TestVerifyCompactTruncate(t *testing.T) {
	e := openEnv(t, Config{Features: []string{"Btree", "Verify", "Compact", "Truncate"}})
	db, _ := e.CreateDB("main", MethodBtree)
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i += 2 {
		db.Delete([]byte(fmt.Sprintf("k%03d", i)))
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify after compact: %v", err)
	}
	if n, _ := db.Len(); n != 100 {
		t.Fatalf("Len = %d", n)
	}
	if err := db.Truncate(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Len(); n != 0 {
		t.Fatalf("Len after truncate = %d", n)
	}
}

func TestSequenceFeature(t *testing.T) {
	fs := osal.NewMemFS()
	e := openEnv(t, Config{FS: fs, Features: []string{"Btree", "Sequence"}})
	s, err := e.Sequence("ids")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		n, err := s.Next()
		if err != nil || n != uint64(i) {
			t.Fatalf("Next = %d, %v", n, err)
		}
	}
	other, _ := e.Sequence("other")
	if n, _ := other.Next(); n != 1 {
		t.Fatalf("independent sequence = %d", n)
	}
	// Persistence across reopen.
	e.Sync()
	e.Close()
	e2 := openEnv(t, Config{FS: fs, Features: []string{"Btree", "Sequence"}})
	s2, _ := e2.Sequence("ids")
	if n, _ := s2.Next(); n != 6 {
		t.Fatalf("sequence after reopen = %d", n)
	}
}

func TestEventsFeature(t *testing.T) {
	var events []string
	e := openEnv(t, Config{
		Features: []string{"Btree", "Events", "Truncate"},
		onEvent:  func(ev Event) { events = append(events, ev.Kind) },
	})
	db, _ := e.CreateDB("main", MethodBtree)
	db.Put([]byte("k"), []byte("v"))
	db.Truncate()
	want := []string{"open", "create-db", "truncate"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
	// Without the feature no events fire even with a callback.
	var silent []string
	e2 := openEnv(t, Config{Features: []string{"Btree"}, onEvent: func(ev Event) { silent = append(silent, ev.Kind) }})
	e2.CreateDB("x", MethodBtree)
	if len(silent) != 0 {
		t.Fatalf("events without feature: %v", silent)
	}
}

func TestErrorMessagesFeature(t *testing.T) {
	with := openEnv(t, Config{Features: []string{"Btree", "ErrorMessages"}})
	without := openEnv(t, Config{Features: []string{"Btree"}})
	if with.Strerror(CodeNotFound) == fmt.Sprintf("bdb: error %d", CodeNotFound) {
		t.Fatal("ErrorMessages product should render text")
	}
	if without.Strerror(CodeNotFound) != fmt.Sprintf("bdb: error %d", CodeNotFound) {
		t.Fatalf("product without ErrorMessages rendered %q", without.Strerror(CodeNotFound))
	}
}

func TestDiagnosticFeature(t *testing.T) {
	// Diagnostic requires ErrorMessages per the model; the put pipeline
	// re-reads each write.
	e := openEnv(t, Config{Features: []string{"Btree", "Diagnostic"}})
	if !e.has("ErrorMessages") {
		t.Fatal("Diagnostic => ErrorMessages not applied")
	}
	db, _ := e.CreateDB("main", MethodBtree)
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestBackupFeature(t *testing.T) {
	src := osal.NewMemFS()
	e := openEnv(t, Config{FS: src, Features: []string{"Btree", "Backup", "Logging"}})
	db, _ := e.CreateDB("main", MethodBtree)
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	dst := osal.NewMemFS()
	if err := e.Backup(dst); err != nil {
		t.Fatal(err)
	}
	// The backup opens as a standalone environment with the data.
	e2 := openEnv(t, Config{FS: dst, Features: []string{"Btree", "Logging", "Recovery"}})
	db2, err := e2.OpenDB("main")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := db2.Len(); n != 50 {
		t.Fatalf("backup Len = %d", n)
	}
}

func TestReplicationFeature(t *testing.T) {
	primary := openEnv(t, Config{Features: []string{"Btree", "Replication"}})
	replica := openEnv(t, Config{Features: []string{"Btree"}})
	if err := primary.AttachReplica(replica); err != nil {
		t.Fatal(err)
	}
	db, _ := primary.CreateDB("main", MethodBtree)
	for i := 0; i < 30; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	db.Delete([]byte("k00"))
	rdb, err := replica.OpenDB("main")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rdb.Len(); n != 29 {
		t.Fatalf("replica Len = %d", n)
	}
	if _, found, _ := rdb.Get([]byte("k00")); found {
		t.Fatal("deleted key present on replica")
	}
	// Every one of the 30 puts reached the replica.
	for i := 1; i < 30; i++ {
		if v, found, _ := rdb.Get([]byte(fmt.Sprintf("k%02d", i))); !found || string(v) != "v" {
			t.Fatalf("replicated key k%02d = %q, %v on replica", i, v, found)
		}
	}
}

func TestCacheTuningFeature(t *testing.T) {
	// With CacheTuning a tiny cache forces evictions; the untuned
	// default (32 pages) absorbs the same workload.
	run := func(features []string, cachePages int) int64 {
		e := openEnv(t, Config{Features: features, cachePages: cachePages, cachePolicy: "LFU"})
		db, _ := e.CreateDB("main", MethodBtree)
		for i := 0; i < 100; i++ {
			db.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte("v"), 50))
		}
		return e.cache.Stats().Evictions
	}
	tuned := run([]string{"Btree", "CacheTuning"}, 2)
	untuned := run([]string{"Btree"}, 2) // ignored without the feature
	if tuned <= untuned {
		t.Fatalf("evictions tuned=%d untuned=%d: tuning should have shrunk the cache", tuned, untuned)
	}
}

func TestFeatureGatesAcrossTheSurface(t *testing.T) {
	e := openEnv(t, Config{Features: []string{"Btree"}})
	db, _ := e.CreateDB("main", MethodBtree)
	cases := []struct {
		name string
		call func() error
	}{
		{"Cursors", func() error { _, err := db.Cursor(); return err }},
		{"Join", func() error { _, err := e.Join(db); return err }},
		{"BulkOps", func() error { return db.BulkPut(nil) }},
		{"Verify", func() error { return db.Verify() }},
		{"Compact", func() error { return db.Compact() }},
		{"Truncate", func() error { return db.Truncate() }},
		{"Backup", func() error { return e.Backup(osal.NewMemFS()) }},
		{"Sequence", func() error { _, err := e.Sequence("s"); return err }},
		{"Transactions", func() error { _, err := e.Begin(); return err }},
		{"Checkpoint", func() error { return e.Checkpoint() }},
		{"Replication", func() error { return e.AttachReplica(e) }},
	}
	for _, c := range cases {
		if err := c.call(); !errors.Is(err, ErrFeature) {
			t.Errorf("%s without feature = %v, want ErrFeature", c.name, err)
		}
	}
}

func TestMonolithicAndComposedBehaveIdentically(t *testing.T) {
	// Sec. 2.2's claim: the transformation does not change behavior.
	for _, feats := range [][]string{
		{"Btree"},
		allFeatures(),
		{"Btree", "Statistics", "Diagnostic"},
	} {
		var results [2][]string
		for mi, mode := range []core.BDBMode{core.ModeC, core.ModeComposed} {
			e := openEnv(t, Config{Mode: mode, Features: feats})
			db, err := e.CreateDB("main", MethodBtree)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i*7)))
			}
			for i := 0; i < 50; i += 3 {
				db.Delete([]byte(fmt.Sprintf("k%02d", i)))
			}
			for i := 0; i < 50; i++ {
				v, found, _ := db.Get([]byte(fmt.Sprintf("k%02d", i)))
				results[mi] = append(results[mi], fmt.Sprintf("%q/%v", v, found))
			}
		}
		for i := range results[0] {
			if results[0][i] != results[1][i] {
				t.Fatalf("features %v: divergence at %d: %s vs %s",
					feats, i, results[0][i], results[1][i])
			}
		}
	}
}

func TestAllFeaturesEndToEnd(t *testing.T) {
	// Configuration 1 with everything on, exercised concurrently.
	e := openEnv(t, Config{Mode: core.ModeComposed, Features: allFeatures()})
	db, err := e.CreateDB("main", MethodBtree)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("g%d-%02d", g, i))
				if err := db.Put(k, []byte("v")); err != nil {
					errs <- err
					return
				}
				if _, _, err := db.Get(k); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, _ := db.Len(); n != 200 {
		t.Fatalf("Len = %d", n)
	}
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	fs := osal.NewMemFS()
	feats := []string{"Btree", "Hash"}
	e := openEnv(t, Config{FS: fs, Features: feats})
	b, _ := e.CreateDB("bt", MethodBtree)
	h, _ := e.CreateDB("hs", MethodHash)
	b.Put([]byte("bk"), []byte("bv"))
	h.Put([]byte("hk"), []byte("hv"))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openEnv(t, Config{FS: fs, Features: feats})
	names, err := e2.Databases()
	if err != nil || len(names) != 2 {
		t.Fatalf("Databases = %v, %v", names, err)
	}
	b2, _ := e2.OpenDB("bt")
	h2, _ := e2.OpenDB("hs")
	if v, _, _ := b2.Get([]byte("bk")); string(v) != "bv" {
		t.Fatalf("btree value = %q", v)
	}
	if v, _, _ := h2.Get([]byte("hk")); string(v) != "hv" {
		t.Fatalf("hash value = %q", v)
	}
}

func TestDuplicateDBRejected(t *testing.T) {
	e := openEnv(t, Config{Features: []string{"Btree"}})
	e.CreateDB("x", MethodBtree)
	if _, err := e.CreateDB("x", MethodBtree); err == nil {
		t.Fatal("duplicate CreateDB should fail")
	}
	if _, err := e.OpenDB("missing"); err == nil {
		t.Fatal("OpenDB of missing db should fail")
	}
}

func TestMethodStrings(t *testing.T) {
	if MethodBtree.String() != "Btree" || MethodHash.String() != "Hash" ||
		MethodQueue.String() != "Queue" || MethodRecno.String() != "Recno" {
		t.Fatal("method names wrong")
	}
}
