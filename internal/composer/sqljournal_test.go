package composer

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"famedb/internal/osal"
	"famedb/internal/sql"
	"famedb/internal/txn"
	"famedb/internal/types"
)

// sqlRecoveryFeatures is a transactional SQL product whose reopen
// restores the checkpoint image and replays the log.
var sqlRecoveryFeatures = []string{
	"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
	"BufferManager", "LRU", "DynamicAlloc",
	"Put", "Get", "Remove", "Update",
	"Transaction", "ForceCommit", "Recovery",
	"SQLEngine", "Optimizer",
}

func mustExec(t *testing.T, inst *Instance, q string) *sql.Result {
	t.Helper()
	r, err := inst.SQL.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return r
}

// column returns column c of every result row, rendered.
func column(r *sql.Result, c int) []string {
	var out []string
	for _, row := range r.Rows {
		out = append(out, row[c].String())
	}
	return out
}

// TestSQLJournalSurvivesReopen: on a Transaction+Recovery product, SQL
// statements are logged like facade writes, so a clean close and a
// reopen (which restores the checkpoint image and replays the log) keep
// the tables, their rows and a rowid table's counter; DDL after a
// checkpoint replays over an image that still holds the old tree.
func TestSQLJournalSurvivesReopen(t *testing.T) {
	fs := osal.NewMemFS()
	compose := func() *Instance {
		t.Helper()
		inst, err := ComposeProduct(Options{FS: fs}, sqlRecoveryFeatures...)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	inst := compose()
	mustExec(t, inst, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
	mustExec(t, inst, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	mustExec(t, inst, "CREATE TABLE log (msg TEXT)")
	mustExec(t, inst, "INSERT INTO log VALUES ('one'), ('two')")
	if err := inst.Txn.Put([]byte("facade"), []byte("put")); err != nil {
		t.Fatal(err)
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}

	inst = compose()
	if got := column(mustExec(t, inst, "SELECT name FROM t"), 0); strings.Join(got, ",") != "'a','b','c'" {
		t.Fatalf("rows after reopen = %v", got)
	}
	if v, err := inst.Txn.Get([]byte("facade")); err != nil || string(v) != "put" {
		t.Fatalf("facade Get after reopen = %q, %v", v, err)
	}
	// The rowid counter came back with the catalog: a new row does not
	// overwrite an old one.
	mustExec(t, inst, "INSERT INTO log VALUES ('three')")
	if n := len(mustExec(t, inst, "SELECT msg FROM log").Rows); n != 3 {
		t.Fatalf("rowid table holds %d rows, want 3", n)
	}

	// After a checkpoint the image holds t's tree; the DROP and the new
	// CREATE replay over it.
	if err := inst.Txn.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, inst, "DROP TABLE t")
	mustExec(t, inst, "CREATE TABLE t (id INT PRIMARY KEY, score INT)")
	mustExec(t, inst, "INSERT INTO t VALUES (7, 70)")
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}

	inst = compose()
	defer inst.Close()
	r := mustExec(t, inst, "SELECT * FROM t")
	if strings.Join(r.Columns, ",") != "id,score" || len(r.Rows) != 1 || r.Rows[0][1].Int != 70 {
		t.Fatalf("t after DROP/CREATE and reopen = %v %v", r.Columns, r.Rows)
	}
	if tables, err := inst.SQL.Tables(); err != nil || strings.Join(tables, ",") != "log,t" {
		t.Fatalf("tables = %v, %v", tables, err)
	}
}

// TestSQLJournalPowerCutAllOrNone: a power cut after an acknowledged
// multi-row INSERT, or after an acknowledged UPDATE of every row,
// leaves all of the statement's rows or none of them. Under ForceCommit
// an acknowledged statement is durable, so all of them survive; under
// GroupCommit a lone statement's sync is deferred, so none may.
func TestSQLJournalPowerCutAllOrNone(t *testing.T) {
	const rows = 50
	for _, protocol := range [][]string{{"ForceCommit"}, {"GroupCommit", "Locking"}} {
		t.Run(protocol[0], func(t *testing.T) {
			features := append(append([]string{}, sqlRecoveryFeatures[:12]...), protocol...)
			features = append(features, "Recovery", "SQLEngine", "Optimizer")
			forced := protocol[0] == "ForceCommit"
			fs := osal.NewCrashFS(osal.NewMemFS())
			compose := func() *Instance {
				t.Helper()
				inst, err := ComposeProduct(Options{FS: fs}, features...)
				if err != nil {
					t.Fatal(err)
				}
				return inst
			}
			// cut abandons inst as a dead process would and reopens.
			cut := func() *Instance {
				t.Helper()
				if err := fs.Crash(); err != nil {
					t.Fatal(err)
				}
				return compose()
			}
			insert := func(inst *Instance) {
				var sb strings.Builder
				sb.WriteString("INSERT INTO t VALUES ")
				for i := 0; i < rows; i++ {
					if i > 0 {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "(%d, 'old')", i)
				}
				mustExec(t, inst, sb.String())
			}
			values := func(inst *Instance) map[string]int {
				out := map[string]int{}
				for _, v := range column(mustExec(t, inst, "SELECT v FROM t"), 0) {
					out[v]++
				}
				return out
			}

			inst := compose()
			mustExec(t, inst, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
			if err := inst.Txn.Flush(); err != nil {
				t.Fatal(err)
			}
			insert(inst)
			inst = cut()
			got := values(inst)
			if n := got["'old'"]; (n != 0 && n != rows) || (forced && n != rows) {
				t.Fatalf("after a cut behind the INSERT: %v, want all %d rows%s", got, rows,
					map[bool]string{false: " or none"}[forced])
			}
			if got["'old'"] == 0 {
				insert(inst)
			}
			if err := inst.Txn.Flush(); err != nil {
				t.Fatal(err)
			}

			mustExec(t, inst, "UPDATE t SET v = 'new'")
			inst = cut()
			defer inst.Close()
			got = values(inst)
			if len(got) != 1 || (got["'new'"] != rows && got["'old'"] != rows) || (forced && got["'new'"] != rows) {
				t.Fatalf("after a cut behind the UPDATE: %v, want every row new%s", got,
					map[bool]string{false: " or every row old"}[forced])
			}
		})
	}
}

// TestSQLJournalReplicaSeesStatements: statements on a primary reach a
// replica through WAL shipping — DDL included — and a SELECT on the
// caught-up replica sees them, while SELECTs racing the replica's
// applier never fail; a writing statement on the replica is refused
// with txn.ErrReadOnly. Run it under -race.
func TestSQLJournalReplicaSeesStatements(t *testing.T) {
	features := append(append([]string{}, serverFeatures...), "SQLEngine", "Optimizer")
	primary, err := ComposeProduct(Options{}, features...)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv, err := primary.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := ComposeProduct(Options{}, features...)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rep, err := replica.ReplicateFrom(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	// Readers on the replica while the primary writes: a table the
	// applier has not created yet is the only error they may see.
	stop := make(chan struct{})
	readErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := replica.SQL.Exec("SELECT id, v FROM t WHERE id >= 0"); err != nil && !errors.Is(err, sql.ErrNoTable) {
				readErr <- err
				return
			}
		}
	}()

	mustExec(t, primary, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	for i := 0; i < 20; i++ {
		mustExec(t, primary, fmt.Sprintf("INSERT INTO t VALUES (%d, 'v%d'), (%d, 'v%d')", 2*i, 2*i, 2*i+1, 2*i+1))
	}
	mustExec(t, primary, "UPDATE t SET v = 'seven' WHERE id = 7")
	mustExec(t, primary, "DELETE FROM t WHERE id = 0")
	if !rep.WaitFor(primary.Txn.WALEnd(), 10*time.Second) {
		t.Fatalf("replica stuck at %d of %d", rep.Offset(), primary.Txn.WALEnd())
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatalf("replica SELECT beside the applier: %v", err)
	default:
	}

	if n := len(mustExec(t, replica, "SELECT id FROM t").Rows); n != 39 {
		t.Fatalf("replica holds %d rows, want 39", n)
	}
	if got := column(mustExec(t, replica, "SELECT v FROM t WHERE id = 7"), 0); len(got) != 1 || got[0] != "'seven'" {
		t.Fatalf("replica row 7 = %v", got)
	}
	for _, q := range []string{"INSERT INTO t VALUES (100, 'x')", "UPDATE t SET v = 'y' WHERE id = 1",
		"CREATE TABLE u (id INT PRIMARY KEY)"} {
		if _, err := replica.SQL.Exec(q); !errors.Is(err, txn.ErrReadOnly) {
			t.Fatalf("%s on the replica = %v, want ErrReadOnly", q, err)
		}
	}
	if n := len(mustExec(t, replica, "SELECT id FROM t").Rows); n != 39 {
		t.Fatalf("a refused statement changed the replica: %d rows", n)
	}
}

// TestSQLJournalSnapshotCarriesTables: a replica that resyncs from a
// snapshot gets the SQL catalog and tables with it, not only the
// store: a replica attached after a checkpoint, holding a table of its
// own, ends up with the primary's tables alone and keeps applying the
// primary's statements. The snapshot's log image writes rows of a
// table the snapshot no longer holds (it was dropped after the
// checkpoint), which the install's redo passes over.
func TestSQLJournalSnapshotCarriesTables(t *testing.T) {
	features := append(append([]string{}, serverFeatures...), "SQLEngine", "Optimizer")
	primary, err := ComposeProduct(Options{}, features...)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv, err := primary.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Txn.Put([]byte("before"), []byte("ckpt")); err != nil {
		t.Fatal(err)
	}
	mustExec(t, primary, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, primary, "INSERT INTO t VALUES (1)")
	mustExec(t, primary, "CREATE TABLE gone (id INT PRIMARY KEY)")
	if err := primary.Txn.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, primary, "INSERT INTO gone VALUES (1)")
	mustExec(t, primary, "DROP TABLE gone")

	replica, err := ComposeProduct(Options{}, features...)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	mustExec(t, replica, "CREATE TABLE stale (id INT PRIMARY KEY)")
	mustExec(t, replica, "INSERT INTO stale VALUES (9)")
	rep, err := replica.ReplicateFrom(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	if err := primary.Txn.Put([]byte("after"), []byte("ckpt")); err != nil {
		t.Fatal(err)
	}
	mustExec(t, primary, "INSERT INTO t VALUES (2)")
	mustExec(t, primary, "CREATE TABLE u (id INT PRIMARY KEY)")
	mustExec(t, primary, "INSERT INTO u VALUES (3)")
	if !rep.WaitFor(primary.Txn.WALEnd(), 10*time.Second) {
		t.Fatalf("replica stuck at %d of %d", rep.Offset(), primary.Txn.WALEnd())
	}
	// The primary counts a resync once its last snapshot frame is
	// written, which may be after the replica has applied it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if snap, _ := primary.Stats(); snap.Repl.Snapshots > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the replica caught up without a snapshot install")
		}
	}
	if got := column(mustExec(t, replica, "SELECT id FROM t"), 0); strings.Join(got, ",") != "1,2" {
		t.Fatalf("replica t = %v", got)
	}
	if got := column(mustExec(t, replica, "SELECT id FROM u"), 0); strings.Join(got, ",") != "3" {
		t.Fatalf("replica u = %v", got)
	}
	for _, gone := range []string{"gone", "stale"} {
		if _, err := replica.SQL.Exec("SELECT * FROM " + gone); !errors.Is(err, sql.ErrNoTable) {
			t.Fatalf("replica SELECT from %s = %v, want ErrNoTable", gone, err)
		}
	}
	for _, k := range []string{"before", "after"} {
		if _, err := replica.Txn.Get([]byte(k)); err != nil {
			t.Fatalf("replica store %q: %v", k, err)
		}
	}
}

// TestSQLJournalDropFreesPages: DROP TABLE frees its table's pages, so
// cycles of CREATE, a few thousand INSERTs and DROP keep the page file
// at the size the first cycle left — with and without Transaction, over
// both index alternatives.
func TestSQLJournalDropFreesPages(t *testing.T) {
	base := []string{"Linux", "BufferManager", "LRU", "DynamicAlloc", "Put", "Get", "Remove", "Update", "SQLEngine"}
	cases := []struct {
		name     string
		features []string
		rows     int
	}{
		{"direct", append([]string{"BPlusTree", "BTreeUpdate", "BTreeRemove"}, base...), 3000},
		{"transaction", append([]string{"BPlusTree", "BTreeUpdate", "BTreeRemove",
			"Transaction", "ForceCommit", "Recovery"}, base...), 3000},
		{"list", append([]string{"ListIndex"}, base...), 300},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inst, err := ComposeProduct(Options{}, c.features...)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			var pages []int64
			for cycle := 0; cycle < 3; cycle++ {
				mustExec(t, inst, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
				for lo := 0; lo < c.rows; lo += 100 {
					var sb strings.Builder
					sb.WriteString("INSERT INTO t VALUES ")
					for i := lo; i < lo+100; i++ {
						if i > lo {
							sb.WriteString(", ")
						}
						fmt.Fprintf(&sb, "(%d, '%s')", i, strings.Repeat("x", 40))
					}
					mustExec(t, inst, sb.String())
				}
				mustExec(t, inst, "DROP TABLE t")
				pages = append(pages, int64(inst.pf.NumPages()))
			}
			if pages[1] > pages[0] || pages[2] > pages[0] {
				t.Fatalf("page file grew across CREATE/INSERT/DROP cycles: %v pages", pages)
			}
		})
	}
}

// syncGate is a file system whose file Syncs wait while the gate is
// shut, so a test can hold a commit inside its log sync.
type syncGate struct {
	osal.FS
	shut    atomic.Bool
	waiting chan struct{} // one send per Sync that waits
	open    chan struct{} // closed to let the waiting Syncs go
}

func newSyncGate() *syncGate {
	return &syncGate{FS: osal.NewMemFS(), waiting: make(chan struct{}, 16), open: make(chan struct{})}
}

func (g *syncGate) Open(name string) (osal.File, error) {
	f, err := g.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

func (g *syncGate) Create(name string) (osal.File, error) {
	f, err := g.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

type gatedFile struct {
	osal.File
	g *syncGate
}

func (f gatedFile) Sync() error {
	if f.g.shut.Load() {
		f.g.waiting <- struct{}{}
		<-f.g.open
	}
	return f.File.Sync()
}

// TestSQLJournalReadsDoNotWaitForSync: on a product with Transaction and
// Locking the journal's read lock isolates reads from every commit's
// apply, so a text SELECT, a prepared SELECT, a Prepare and a plan-cache
// miss's compile each finish while a writing statement sits in its log
// sync.
func TestSQLJournalReadsDoNotWaitForSync(t *testing.T) {
	gate := newSyncGate()
	inst, err := ComposeProduct(Options{FS: gate},
		append(append([]string{}, sqlRecoveryFeatures...), "Locking", "CompiledQueries")...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	mustExec(t, inst, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, inst, "INSERT INTO t VALUES (1, 'a')")
	mustExec(t, inst, "SELECT v FROM t WHERE id = 1") // caches the shape
	stmt, err := inst.SQL.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}

	gate.shut.Store(true)
	var opened sync.Once
	release := func() { opened.Do(func() { gate.shut.Store(false); close(gate.open) }) }
	defer release()
	inserted := make(chan error, 1)
	go func() {
		_, err := inst.SQL.Exec("INSERT INTO t VALUES (2, 'b')")
		inserted <- err
	}()
	select {
	case <-gate.waiting:
	case err := <-inserted:
		t.Fatalf("INSERT finished (%v) without syncing", err)
	case <-time.After(5 * time.Second):
		t.Fatal("INSERT never reached its log sync")
	}

	committed := func(res *sql.Result, err error) error {
		if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].Str != "a") {
			err = fmt.Errorf("rows = %v, want the committed row only", res.Rows)
		}
		return err
	}
	reads := []struct {
		name string
		run  func() error
	}{
		{"text SELECT", func() error { return committed(inst.SQL.Exec("SELECT v FROM t WHERE id = 1")) }},
		{"prepared SELECT", func() error { return committed(stmt.Exec(types.Int(1))) }},
		{"Prepare", func() error {
			_, err := inst.SQL.Prepare("SELECT id FROM t WHERE v = ?")
			return err
		}},
		{"plan-cache miss", func() error { return committed(inst.SQL.Exec("SELECT v FROM t WHERE id > 0")) }},
	}
	for _, r := range reads {
		done := make(chan error, 1)
		go func() { done <- r.run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s waited for the INSERT's log sync", r.name)
		}
	}

	release()
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if got := column(mustExec(t, inst, "SELECT v FROM t ORDER BY id"), 0); strings.Join(got, ",") != "'a','b'" {
		t.Fatalf("rows after the commit = %v, want 'a','b'", got)
	}
}
