package shell

import (
	"strings"
	"testing"
	"time"

	fame "famedb"
	"famedb/internal/osal"
)

// observedShell builds a console over a product with QueryStats whose
// every page write takes 2ms, above the 1ms slow-query threshold, so
// every statement that writes lands in the slow ring.
func observedShell(t *testing.T) (*Shell, *strings.Builder) {
	t.Helper()
	fs := osal.NewDelayFS(osal.NewMemFS(), 2*time.Millisecond, 0)
	db, err := fame.Open(fame.Options{FS: fs},
		"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
		"Put", "Get", "Remove", "Update",
		"SQLEngine", "Optimizer", "Statistics", "QueryStats")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var out strings.Builder
	return New(db, &out), &out
}

func TestShellExplainAndQueries(t *testing.T) {
	s, out := observedShell(t)
	s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	s.Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
	out.Reset()

	s.Execute(".explain SELECT v FROM t WHERE id = 1")
	got := out.String()
	for _, want := range []string{"explain select on t", "access:", "source: exec"} {
		if !strings.Contains(got, want) {
			t.Fatalf(".explain output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "executed:") {
		t.Fatalf("plain .explain executed the statement:\n%s", got)
	}

	out.Reset()
	s.Execute(".explain analyze SELECT v FROM t WHERE id = 1")
	if got := out.String(); !strings.Contains(got, "executed:") || !strings.Contains(got, "returned=1") {
		t.Fatalf(".explain analyze output missing counters:\n%s", got)
	}

	out.Reset()
	s.Execute(".queries")
	got = out.String()
	if !strings.Contains(got, "shape") || !strings.Contains(got, "SELECT v FROM t WHERE id = ?") {
		t.Fatalf(".queries output missing profiles:\n%s", got)
	}
	if !strings.Contains(got, "slow ring:") {
		t.Fatalf(".queries output missing slow-ring summary:\n%s", got)
	}

	out.Reset()
	s.Execute(".queries top 1")
	if got := out.String(); !strings.Contains(got, "more shapes") {
		t.Fatalf(".queries top 1 did not truncate:\n%s", got)
	}

	out.Reset()
	s.Execute(".queries slow")
	if got := out.String(); !strings.Contains(got, "INSERT INTO t VALUES") {
		t.Fatalf(".queries slow printed no entries:\n%s", got)
	}

	out.Reset()
	s.Execute(".explain")
	if got := out.String(); !strings.Contains(got, "usage: .explain") {
		t.Fatalf("bare .explain printed %q, want usage", got)
	}
}

func TestShellExplainNotComposed(t *testing.T) {
	s, out := newShell(t,
		"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
		"Put", "Get", "Remove", "Update", "SQLEngine", "Optimizer")
	s.Execute("CREATE TABLE t (id INT PRIMARY KEY)")
	out.Reset()
	s.Execute(".explain SELECT * FROM t")
	if got := out.String(); !strings.Contains(got, "QueryStats feature not composed") {
		t.Fatalf(".explain printed %q, want QueryStats guidance", got)
	}
	out.Reset()
	s.Execute(".queries")
	if got := out.String(); !strings.Contains(got, "not composed") {
		t.Fatalf(".queries printed %q, want not-composed guidance", got)
	}
}

func TestShellHelpListsQueryCommands(t *testing.T) {
	s, out := observedShell(t)
	s.Execute(".help")
	got := out.String()
	for _, want := range []string{".explain", ".queries", "feature QueryStats"} {
		if !strings.Contains(got, want) {
			t.Fatalf(".help missing %q:\n%s", want, got)
		}
	}
}
