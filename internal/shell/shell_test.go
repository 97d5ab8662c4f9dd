package shell

import (
	"strings"
	"testing"

	fame "famedb"
)

func newShell(t *testing.T, features ...string) (*Shell, *strings.Builder) {
	t.Helper()
	db, err := fame.Open(fame.Options{}, features...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var out strings.Builder
	return New(db, &out), &out
}

func TestShellKVAndStats(t *testing.T) {
	s, out := newShell(t,
		"Linux", "BPlusTree", "BufferManager", "LRU", "Put", "Get", "Remove", "Statistics")

	for _, line := range []string{"put a 1", "put b 2", "get a", "del b"} {
		if done := s.Execute(line); done {
			t.Fatalf("%q terminated the shell", line)
		}
	}
	if got := out.String(); !strings.Contains(got, "ok\nok\n1\nok\n") {
		t.Errorf("kv transcript = %q", got)
	}

	out.Reset()
	s.Execute(".features")
	if !strings.Contains(out.String(), "Statistics") {
		t.Errorf(".features output %q missing Statistics", out.String())
	}

	out.Reset()
	s.Execute(".stats")
	if !strings.Contains(out.String(), "buffer (LRU)") {
		t.Errorf(".stats output %q missing buffer section", out.String())
	}

	out.Reset()
	s.Execute(".stats prom")
	if !strings.Contains(out.String(), "famedb_buffer_hits_total") {
		t.Errorf(".stats prom output %q missing Prometheus metric", out.String())
	}

	out.Reset()
	s.Execute(".stats json")
	if !strings.Contains(out.String(), `"buffer"`) {
		t.Errorf(".stats json output %q missing buffer key", out.String())
	}

	if !s.Execute(".quit") {
		t.Error(".quit did not terminate the shell")
	}
}

func TestShellStatsNotComposed(t *testing.T) {
	s, out := newShell(t, "Linux", "BPlusTree", "Put", "Get")
	s.Execute(".stats")
	if !strings.Contains(out.String(), "not composed") {
		t.Errorf(".stats on uninstrumented product printed %q, want not-composed error", out.String())
	}
}

func TestShellSQLPassThrough(t *testing.T) {
	s, out := newShell(t,
		"Linux", "BPlusTree", "Put", "Get", "Remove", "Update", "SQLEngine", "Optimizer")
	for _, line := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, name TEXT)",
		"INSERT INTO t (id, name) VALUES (1, 'ada')",
	} {
		s.Execute(line)
	}
	out.Reset()
	s.Execute("SELECT name FROM t WHERE id = 1")
	got := out.String()
	if !strings.Contains(got, "ada") || !strings.Contains(got, "(1 rows") {
		t.Errorf("select transcript = %q", got)
	}
}

func TestShellRun(t *testing.T) {
	s, out := newShell(t, "Linux", "BPlusTree", "Put", "Get")
	in := strings.NewReader("put k v\nget k\n.quit\n")
	if err := s.Run(in); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "ok\nfame> v\n") {
		t.Errorf("transcript = %q", got)
	}
}

func TestShellUnknownAndUsage(t *testing.T) {
	s, out := newShell(t, "Linux", "BPlusTree", "Put", "Get")
	s.Execute(".bogus")
	if !strings.Contains(out.String(), "unknown command") {
		t.Errorf("unknown dot-command transcript = %q", out.String())
	}
	out.Reset()
	s.Execute("put onlykey")
	if !strings.Contains(out.String(), "usage: put") {
		t.Errorf("usage transcript = %q", out.String())
	}
}

func TestShellHelpGeneratedFromCommandTable(t *testing.T) {
	s, out := newShell(t, "Linux", "BPlusTree", "Put", "Get")
	s.Execute(".help")
	got := out.String()
	for _, c := range commands {
		if !strings.Contains(got, c.name) || !strings.Contains(got, c.help) {
			t.Errorf(".help missing %q (%q):\n%s", c.name, c.help, got)
		}
	}
	if !strings.Contains(got, "<sql statement>") {
		t.Errorf(".help missing SQL fallback:\n%s", got)
	}
}

func TestShellTrace(t *testing.T) {
	s, out := newShell(t,
		"Linux", "BPlusTree", "BufferManager", "LRU", "Put", "Get", "Tracing")
	s.Execute("put k v")
	s.Execute("get k")

	out.Reset()
	s.Execute(".trace dump")
	if got := out.String(); !strings.Contains(got, "access.put") || !strings.Contains(got, "access.get") {
		t.Errorf(".trace dump = %q, want span tree", got)
	} else if !strings.Contains(got, "\n  btree.insert") || !strings.Contains(got, "\n    buffer.") ||
		strings.Contains(got, "goro=") {
		t.Errorf(".trace dump = %q, want layers nested by indentation and no goroutine ids", got)
	}

	out.Reset()
	s.Execute(".trace dump chrome")
	if !strings.Contains(out.String(), `"traceEvents"`) {
		t.Errorf(".trace dump chrome = %q", out.String())
	}

	out.Reset()
	s.Execute(".trace slow")
	if !strings.Contains(out.String(), "slow ops") {
		t.Errorf(".trace slow = %q", out.String())
	}

	out.Reset()
	s.Execute(".trace off")
	s.Execute("put k2 v2")
	s.Execute(".trace on")
	if !strings.Contains(out.String(), "tracing off") || !strings.Contains(out.String(), "tracing on") {
		t.Errorf("toggle transcript = %q", out.String())
	}

	out.Reset()
	s.Execute(".trace")
	if !strings.Contains(out.String(), "usage: .trace") {
		t.Errorf("bare .trace = %q, want usage", out.String())
	}
}

func TestShellTraceNotComposed(t *testing.T) {
	s, out := newShell(t, "Linux", "BPlusTree", "Put", "Get")
	for _, line := range []string{".trace on", ".trace dump", ".trace slow"} {
		out.Reset()
		s.Execute(line)
		if !strings.Contains(out.String(), "not composed") {
			t.Errorf("%q on untraced product printed %q, want not-composed error", line, out.String())
		}
	}
}

func TestShellVerify(t *testing.T) {
	s, out := newShell(t,
		"Linux", "BPlusTree", "BufferManager", "LRU",
		"Put", "Get", "Checksums",
		"Transaction", "ForceCommit")
	s.Execute("put a 1")
	s.Execute(".flush")
	out.Reset()
	s.Execute(".verify")
	got := out.String()
	if !strings.Contains(got, "pages: ") || !strings.Contains(got, "log: ") {
		t.Errorf(".verify transcript %q missing scrub sections", got)
	}
	if !strings.Contains(got, "ok\n") || strings.Contains(got, "CORRUPTION") {
		t.Errorf(".verify transcript %q not clean", got)
	}
}

func TestShellVerifyNotComposed(t *testing.T) {
	s, out := newShell(t, "Linux", "ListIndex", "Put", "Get")
	s.Execute(".verify")
	if !strings.Contains(out.String(), "not composed") {
		t.Errorf(".verify on a bare product = %q", out.String())
	}
}

func TestShellMonitor(t *testing.T) {
	s, out := newShell(t,
		"Linux", "BPlusTree", "BufferManager", "LRU",
		"Put", "Get", "Statistics", "Monitor")

	for _, line := range []string{"put a 1", "put b 2", "get a", "get b"} {
		s.Execute(line)
	}
	out.Reset()
	s.Execute(".monitor")
	got := out.String()
	for _, want := range []string{"window", "health   ok", "rates", "watchdog"} {
		if !strings.Contains(got, want) {
			t.Errorf(".monitor output %q missing %q", got, want)
		}
	}

	out.Reset()
	s.Execute(".monitor events")
	if !strings.Contains(out.String(), "no operational events") {
		t.Errorf(".monitor events on a quiet product printed %q", out.String())
	}

	out.Reset()
	s.Execute(".help")
	if !strings.Contains(out.String(), ".monitor") {
		t.Errorf(".help output %q missing .monitor", out.String())
	}
}

func TestShellMonitorNotComposed(t *testing.T) {
	s, out := newShell(t, "Linux", "BPlusTree", "Put", "Get", "Statistics")
	s.Execute(".monitor")
	if !strings.Contains(out.String(), "not composed") ||
		!strings.Contains(out.String(), "Monitor") {
		t.Errorf(".monitor on a product without Monitor printed %q, want not-composed guidance",
			out.String())
	}
}

func TestShellSnapshot(t *testing.T) {
	s, out := newShell(t,
		"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
		"Put", "Get", "Update", "Transaction", "GroupCommit", "Locking", "MVCC")

	s.Execute("put k old")
	out.Reset()
	s.Execute(".snapshot begin")
	if got := out.String(); !strings.Contains(got, "pinned") || !strings.Contains(got, "1 entries") {
		t.Fatalf(".snapshot begin output = %q", got)
	}

	// The live store moves on; the snapshot must not.
	s.Execute("update k new")
	out.Reset()
	s.Execute(".snapshot get k")
	if got := out.String(); !strings.Contains(got, "old") {
		t.Errorf("snapshot get after update = %q, want begin-time old", got)
	}
	out.Reset()
	s.Execute("get k")
	if got := out.String(); !strings.Contains(got, "new") {
		t.Errorf("live get = %q, want new", got)
	}

	out.Reset()
	s.Execute(".snapshot scan")
	if got := out.String(); !strings.Contains(got, "k = old") || !strings.Contains(got, "(1 rows)") {
		t.Errorf(".snapshot scan output = %q", got)
	}

	out.Reset()
	s.Execute(".snapshot")
	if got := out.String(); !strings.Contains(got, "open") {
		t.Errorf("bare .snapshot output = %q", got)
	}

	out.Reset()
	s.Execute(".snapshot end")
	if got := out.String(); !strings.Contains(got, "released") {
		t.Errorf(".snapshot end output = %q", got)
	}
	out.Reset()
	s.Execute(".snapshot get k")
	if got := out.String(); !strings.Contains(got, "no snapshot open") {
		t.Errorf("read after end = %q", got)
	}
}

func TestShellSnapshotNotComposed(t *testing.T) {
	s, out := newShell(t,
		"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
		"Put", "Get", "Transaction", "ForceCommit")
	s.Execute(".snapshot begin")
	if got := out.String(); !strings.Contains(got, "MVCC feature not composed") {
		t.Errorf(".snapshot without MVCC = %q", got)
	}
}

func TestShellPrepareExec(t *testing.T) {
	s, out := newShell(t,
		"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
		"Put", "Get", "Remove", "Update", "SQLEngine", "Optimizer", "CompiledQueries")

	s.Execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
	s.Execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")

	out.Reset()
	s.Execute(".prepare byid SELECT name FROM t WHERE id = ?")
	if !strings.Contains(out.String(), "prepared byid (1 params)") {
		t.Errorf(".prepare output = %q", out.String())
	}

	out.Reset()
	s.Execute(".exec byid 2")
	if got := out.String(); !strings.Contains(got, "two") || !strings.Contains(got, "point-lookup") {
		t.Errorf(".exec output = %q", got)
	}

	// String args: quoted and bare both reach the engine as text.
	out.Reset()
	s.Execute(".prepare ins INSERT INTO t VALUES (?, ?)")
	s.Execute(".exec ins 3 'three'")
	s.Execute(".exec byid 3")
	if !strings.Contains(out.String(), "three") {
		t.Errorf("insert-then-select transcript = %q", out.String())
	}

	// Bare .prepare lists, close retires.
	out.Reset()
	s.Execute(".prepare")
	if got := out.String(); !strings.Contains(got, "byid") || !strings.Contains(got, "ins") {
		t.Errorf(".prepare listing = %q", got)
	}
	out.Reset()
	s.Execute(".prepare close ins")
	s.Execute(".exec ins 4 'four'")
	if got := out.String(); !strings.Contains(got, "closed") || !strings.Contains(got, `no prepared statement "ins"`) {
		t.Errorf("close transcript = %q", got)
	}

	out.Reset()
	s.Execute(".exec nope 1")
	if !strings.Contains(out.String(), `no prepared statement "nope"`) {
		t.Errorf(".exec unknown = %q", out.String())
	}
}

func TestShellPrepareNotComposed(t *testing.T) {
	s, out := newShell(t,
		"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
		"Put", "Get", "Remove", "Update", "SQLEngine", "Optimizer")
	s.Execute(".prepare q SELECT 1")
	if !strings.Contains(out.String(), "CompiledQueries feature not composed") {
		t.Errorf(".prepare without feature = %q", out.String())
	}
}
