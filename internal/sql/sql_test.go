package sql

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"famedb/internal/access"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/storage"
	"famedb/internal/types"
)

// createEngine builds an engine over a fresh in-memory B+-tree page
// file with every access operation; cfg supplies the feature selection.
func createEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	return createEngineOn(t, osal.NewMemFS(), cfg)
}

// createEngineOn is createEngine with its page file on fs.
func createEngineOn(t *testing.T, fs osal.FS, cfg Config) *Engine {
	t.Helper()
	f, err := fs.Create("sql.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 4096)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pager = pf
	cfg.Factory = BTreeFactory(index.AllBTreeOps())
	cfg.Ops = access.AllOps()
	e, _, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newEngine(t *testing.T, optimizer bool) *Engine {
	t.Helper()
	return createEngine(t, Config{Optimizer: optimizer})
}

func mustExec(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	r, err := e.Exec(q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return r
}

func seedUsers(t *testing.T, e *Engine) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, age INT)")
	mustExec(t, e, `INSERT INTO users VALUES
		(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35), (4, 'dave', 25)`)
}

func TestCreateInsertSelect(t *testing.T) {
	e := newEngine(t, true)
	seedUsers(t, e)
	r := mustExec(t, e, "SELECT * FROM users ORDER BY id")
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if len(r.Columns) != 3 || r.Columns[0] != "id" {
		t.Fatalf("columns = %v", r.Columns)
	}
	if r.Rows[0][1].Str != "alice" || r.Rows[3][1].Str != "dave" {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestSelectProjectionFilterOrderLimit(t *testing.T) {
	e := newEngine(t, true)
	seedUsers(t, e)
	r := mustExec(t, e, "SELECT name FROM users WHERE age = 25 ORDER BY name DESC LIMIT 1")
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 || r.Rows[0][0].Str != "dave" {
		t.Fatalf("rows = %v", r.Rows)
	}
	r = mustExec(t, e, "SELECT name FROM users WHERE age >= 30 AND id < 3")
	if len(r.Rows) != 1 || r.Rows[0][0].Str != "alice" {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestOptimizerChoosesIndexScan(t *testing.T) {
	e := newEngine(t, true)
	seedUsers(t, e)
	// A single primary-key equality is one index Get.
	r := mustExec(t, e, "SELECT * FROM users WHERE id = 2")
	if r.Plan != "point-lookup" {
		t.Fatalf("plan = %q, want point-lookup", r.Plan)
	}
	if len(r.Rows) != 1 || r.Rows[0][1].Str != "bob" {
		t.Fatalf("rows = %v", r.Rows)
	}
	// Range on the primary key.
	r = mustExec(t, e, "SELECT * FROM users WHERE id > 1 AND id <= 3 ORDER BY id")
	if r.Plan != "index-scan" || len(r.Rows) != 2 {
		t.Fatalf("plan %q rows %v", r.Plan, r.Rows)
	}
	// Non-key predicate: full scan even with the optimizer.
	r = mustExec(t, e, "SELECT * FROM users WHERE age = 25")
	if r.Plan != "full-scan" {
		t.Fatalf("plan = %q, want full-scan", r.Plan)
	}
}

func TestWithoutOptimizerAlwaysFullScan(t *testing.T) {
	e := newEngine(t, false)
	seedUsers(t, e)
	r := mustExec(t, e, "SELECT * FROM users WHERE id = 2")
	if r.Plan != "full-scan" {
		t.Fatalf("plan = %q, want full-scan without Optimizer feature", r.Plan)
	}
	if len(r.Rows) != 1 || r.Rows[0][1].Str != "bob" {
		t.Fatalf("rows must be identical without optimizer: %v", r.Rows)
	}
}

func TestUpdate(t *testing.T) {
	e := newEngine(t, true)
	seedUsers(t, e)
	r := mustExec(t, e, "UPDATE users SET age = 26 WHERE name = 'bob'")
	if r.Affected != 1 {
		t.Fatalf("affected = %d", r.Affected)
	}
	r = mustExec(t, e, "SELECT age FROM users WHERE id = 2")
	if r.Rows[0][0].Int != 26 {
		t.Fatalf("age = %v", r.Rows[0][0])
	}
	// Update of the primary key relocates the row.
	mustExec(t, e, "UPDATE users SET id = 20 WHERE id = 2")
	r = mustExec(t, e, "SELECT name FROM users WHERE id = 20")
	if len(r.Rows) != 1 || r.Rows[0][0].Str != "bob" {
		t.Fatalf("rows after pk move = %v", r.Rows)
	}
	if r := mustExec(t, e, "SELECT * FROM users WHERE id = 2"); len(r.Rows) != 0 {
		t.Fatal("old pk still present")
	}
	// PK collision rejected.
	if _, err := e.Exec("UPDATE users SET id = 1 WHERE id = 3"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("pk collision = %v", err)
	}
}

func TestDelete(t *testing.T) {
	e := newEngine(t, true)
	seedUsers(t, e)
	r := mustExec(t, e, "DELETE FROM users WHERE age = 25")
	if r.Affected != 2 {
		t.Fatalf("affected = %d", r.Affected)
	}
	r = mustExec(t, e, "SELECT * FROM users")
	if len(r.Rows) != 2 {
		t.Fatalf("remaining = %d", len(r.Rows))
	}
	r = mustExec(t, e, "DELETE FROM users")
	if r.Affected != 2 {
		t.Fatalf("delete all affected = %d", r.Affected)
	}
}

func TestDuplicatePrimaryKeyRejected(t *testing.T) {
	e := newEngine(t, true)
	seedUsers(t, e)
	if _, err := e.Exec("INSERT INTO users VALUES (1, 'dup', 1)"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert = %v", err)
	}
}

func TestHiddenRowIDTable(t *testing.T) {
	e := newEngine(t, true)
	mustExec(t, e, "CREATE TABLE log (msg TEXT, level INT)")
	for i := 0; i < 5; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO log VALUES ('m%d', %d)", i, i%2))
	}
	r := mustExec(t, e, "SELECT msg FROM log WHERE level = 1")
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// Identical rows are allowed without a primary key.
	mustExec(t, e, "INSERT INTO log VALUES ('m0', 0)")
	r = mustExec(t, e, "SELECT * FROM log")
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Rows))
	}
}

func TestInsertColumnSubsetRejectedWithoutDefaults(t *testing.T) {
	e := newEngine(t, true)
	mustExec(t, e, "CREATE TABLE t (a INT, b INT)")
	if _, err := e.Exec("INSERT INTO t (a) VALUES (1)"); err == nil {
		t.Fatal("partial insert should fail (no NULL support)")
	}
	// Reordered columns work.
	mustExec(t, e, "INSERT INTO t (b, a) VALUES (2, 1)")
	r := mustExec(t, e, "SELECT a, b FROM t")
	if r.Rows[0][0].Int != 1 || r.Rows[0][1].Int != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestTypeChecking(t *testing.T) {
	e := newEngine(t, true)
	mustExec(t, e, "CREATE TABLE t (a INT, f FLOAT, s TEXT, b BOOL)")
	// Int coerces into float; everything else must match.
	mustExec(t, e, "INSERT INTO t VALUES (1, 2, 'x', TRUE)")
	if _, err := e.Exec("INSERT INTO t VALUES ('str', 2.0, 'x', FALSE)"); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("type mismatch = %v", err)
	}
	r := mustExec(t, e, "SELECT f FROM t")
	if r.Rows[0][0].Kind != types.KindFloat || r.Rows[0][0].Float != 2 {
		t.Fatalf("coerced float = %v", r.Rows[0][0])
	}
}

func TestErrorsForMissingObjects(t *testing.T) {
	e := newEngine(t, true)
	if _, err := e.Exec("SELECT * FROM nothere"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table = %v", err)
	}
	seedUsers(t, e)
	if _, err := e.Exec("SELECT nope FROM users"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("missing column = %v", err)
	}
	if _, err := e.Exec("SELECT * FROM users WHERE nope = 1"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("missing where column = %v", err)
	}
	if _, err := e.Exec("SELECT * FROM users ORDER BY nope"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("missing order column = %v", err)
	}
	if _, err := e.Exec("CREATE TABLE users (x INT)"); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate table = %v", err)
	}
}

func TestDropTable(t *testing.T) {
	e := newEngine(t, true)
	seedUsers(t, e)
	mustExec(t, e, "DROP TABLE users")
	if _, err := e.Exec("SELECT * FROM users"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("select after drop = %v", err)
	}
	// Recreate with a different schema.
	mustExec(t, e, "CREATE TABLE users (x INT)")
	mustExec(t, e, "INSERT INTO users VALUES (9)")
}

func TestPersistenceAcrossReopen(t *testing.T) {
	f, _ := osal.NewMemFS().Create("p.db")
	pf, _ := storage.CreatePageFile(f, 4096)
	cfg := Config{
		Pager:     pf,
		Factory:   BTreeFactory(index.AllBTreeOps()),
		Ops:       access.AllOps(),
		Optimizer: true,
	}
	e, meta, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE kv (k TEXT PRIMARY KEY, v INT)")
	mustExec(t, e, "INSERT INTO kv VALUES ('a', 1), ('b', 2)")
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg, meta)
	if err != nil {
		t.Fatal(err)
	}
	r := mustExec(t, e2, "SELECT v FROM kv WHERE k = 'b'")
	if len(r.Rows) != 1 || r.Rows[0][0].Int != 2 {
		t.Fatalf("reopened rows = %v", r.Rows)
	}
	tables, err := e2.Tables()
	if err != nil || len(tables) != 1 || tables[0] != "kv" {
		t.Fatalf("Tables = %v, %v", tables, err)
	}
}

func TestListIndexBackend(t *testing.T) {
	f, _ := osal.NewMemFS().Create("l.db")
	pf, _ := storage.CreatePageFile(f, 512)
	e, _, err := Create(Config{
		Pager:     pf,
		Factory:   ListFactory(),
		Ops:       access.AllOps(),
		Optimizer: true, // optimizer present, but the index is unordered
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (2, 'b'), (1, 'a'), (3, 'c')")
	r := mustExec(t, e, "SELECT v FROM t WHERE id = 2")
	// Unordered index: the optimizer must not plan a range scan.
	if r.Plan != "full-scan" {
		t.Fatalf("plan on list index = %q", r.Plan)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].Str != "b" {
		t.Fatalf("rows = %v", r.Rows)
	}
	r = mustExec(t, e, "SELECT id FROM t ORDER BY id DESC")
	if len(r.Rows) != 3 || r.Rows[0][0].Int != 3 {
		t.Fatalf("ordered rows = %v", r.Rows)
	}
}

func TestOperationGatingSurfacesInSQL(t *testing.T) {
	// A read-only product (no Remove op): DELETE fails with the feature
	// error, SELECT works.
	f, _ := osal.NewMemFS().Create("g.db")
	pf, _ := storage.CreatePageFile(f, 4096)
	e, _, err := Create(Config{
		Pager:   pf,
		Factory: BTreeFactory(index.AllBTreeOps()),
		Ops:     access.Ops{Put: true, Get: true, Update: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, e, "INSERT INTO t VALUES (1)")
	if _, err := e.Exec("DELETE FROM t WHERE id = 1"); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("DELETE without Remove feature = %v", err)
	}
	mustExec(t, e, "SELECT * FROM t")
}

func TestParseErrors(t *testing.T) {
	e := newEngine(t, true)
	bad := []string{
		"",
		"FROB users",
		"SELECT FROM users",
		"SELECT * users",
		"CREATE TABLE t (a INT, a INT)",
		"CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)",
		"CREATE TABLE t (a DATETIME)",
		"INSERT INTO t VALUES (1",
		"SELECT * FROM t WHERE a LIKE 'x'",
		"SELECT * FROM t LIMIT 'x'",
		"SELECT * FROM t; SELECT * FROM t",
		"UPDATE t SET",
		"DELETE t",
		"SELECT * FROM t WHERE a = 'unterminated",
	}
	for _, q := range bad {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
}

func TestLexerFeatures(t *testing.T) {
	mustExecQ := func(q string) {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
	mustExecQ("SELECT * FROM t -- trailing comment")
	mustExecQ("select * from t where a = 'it''s'")
	mustExecQ("SELECT * FROM t WHERE a = -5 AND b = 2.5e3")
	mustExecQ("SELECT * FROM t;")
}

func TestStringEscaping(t *testing.T) {
	e := newEngine(t, true)
	mustExec(t, e, "CREATE TABLE t (s TEXT PRIMARY KEY)")
	mustExec(t, e, "INSERT INTO t VALUES ('it''s')")
	r := mustExec(t, e, "SELECT s FROM t WHERE s = 'it''s'")
	if len(r.Rows) != 1 || r.Rows[0][0].Str != "it's" {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestLargeTableScanAndRange(t *testing.T) {
	e := newEngine(t, true)
	mustExec(t, e, "CREATE TABLE big (id INT PRIMARY KEY, grp INT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%10)
	}
	mustExec(t, e, sb.String())
	r := mustExec(t, e, "SELECT * FROM big WHERE id >= 100 AND id < 200")
	if r.Plan != "index-scan" || len(r.Rows) != 100 {
		t.Fatalf("plan %q rows %d", r.Plan, len(r.Rows))
	}
	r = mustExec(t, e, "SELECT * FROM big WHERE grp = 3")
	if len(r.Rows) != 50 {
		t.Fatalf("grp rows = %d", len(r.Rows))
	}
}

// TestOpenCatalogWithoutTreeIDs opens a catalog whose entries carry no
// tree id, the format written before tables were journaled as trees:
// each table takes a fresh id at open, the same one on every open, and
// keeps its rows, its rowid counter and its DROP.
func TestOpenCatalogWithoutTreeIDs(t *testing.T) {
	f, _ := osal.NewMemFS().Create("old.db")
	pf, _ := storage.CreatePageFile(f, 4096)
	cfg := Config{Pager: pf, Factory: BTreeFactory(index.AllBTreeOps()),
		Ops: access.AllOps(), Optimizer: true}
	e, meta, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedUsers(t, e)
	mustExec(t, e, "CREATE TABLE events (msg TEXT)")
	mustExec(t, e, "INSERT INTO events VALUES ('boot'), ('up')")
	// Rewrite every entry as the older format wrote it: the same values
	// without the trailing tree id.
	var keys, recs [][]byte
	if err := e.catalog.Scan(nil, nil, func(k, v []byte) bool {
		vals, err := types.DecodeRow(v)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, append([]byte(nil), k...))
		recs = append(recs, types.EncodeRow(vals[:len(vals)-1]))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if err := e.catalog.Insert(keys[i], recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	treeIDs := func(e *Engine) map[string]uint64 {
		ids := map[string]uint64{}
		if err := e.catalog.Scan(nil, nil, func(_, v []byte) bool {
			m, err := decodeTableMeta(v)
			if err != nil {
				t.Fatal(err)
			}
			ids[m.name] = m.tree
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	if ids := treeIDs(e); ids["users"] != 0 || ids["events"] != 0 {
		t.Fatalf("rewritten entries name trees %v", ids)
	}

	e2, err := Open(cfg, meta)
	if err != nil {
		t.Fatalf("open older catalog: %v", err)
	}
	// Fresh ids in catalog (key) order: a crash before the rewritten
	// entries reach the device makes the next open pick the same ids.
	ids := treeIDs(e2)
	if ids["events"] != firstTableTree || ids["users"] != firstTableTree+1 {
		t.Fatalf("upgraded tree ids %v", ids)
	}
	if again := treeIDs(mustOpen(t, cfg, meta)); fmt.Sprint(again) != fmt.Sprint(ids) {
		t.Fatalf("reopen reads %v, first open wrote %v", again, ids)
	}
	if r := mustExec(t, e2, "SELECT name FROM users WHERE id = 3"); len(r.Rows) != 1 || r.Rows[0][0].Str != "carol" {
		t.Fatalf("users after upgrade = %v", r.Rows)
	}
	mustExec(t, e2, "INSERT INTO events VALUES ('later')")
	if r := mustExec(t, e2, "SELECT msg FROM events"); len(r.Rows) != 3 {
		t.Fatalf("events after upgrade = %v", r.Rows)
	}
	mustExec(t, e2, "CREATE TABLE fresh (x INT)")
	if id := treeIDs(e2)["fresh"]; id == ids["users"] || id == ids["events"] {
		t.Fatalf("new table reuses tree %d of %v", id, ids)
	}
	mustExec(t, e2, "DROP TABLE users")
	if _, err := e2.Exec("SELECT * FROM users"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("select after drop = %v", err)
	}
}

func mustOpen(t *testing.T, cfg Config, meta storage.PageID) *Engine {
	t.Helper()
	e, err := Open(cfg, meta)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
