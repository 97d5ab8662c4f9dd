// Package shell is the interactive console for a derived FAME-DBMS
// product (cmd/fame-repl): key/value commands, SQL pass-through for
// products with the SQLEngine feature, and dot-commands for
// introspection — .stats dumps the Statistics feature's counters and
// latency histograms, .trace the Tracing feature's span ring and
// slow-op log, .monitor the Monitor feature's windowed rates and
// watchdog events, .prepare/.exec drive the CompiledQueries feature's
// prepared statements.
//
// The console operates strictly on the public facade, so it can only do
// what the derived product composed: absent features answer with
// ErrNotComposed like any other client would see.
package shell

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	fame "famedb"
)

// Shell wraps a derived product with a line-oriented command loop.
type Shell struct {
	db  *fame.DB
	out io.Writer
	// snap is the console's open snapshot transaction (feature MVCC):
	// .snapshot begin pins the newest committed version, reads via
	// .snapshot get/scan keep seeing exactly that state no matter what
	// the put/del commands change, and .snapshot end releases the pin.
	snap *fame.Tx
	// stmts holds the console's named prepared statements (feature
	// CompiledQueries): .prepare compiles once, .exec binds and runs.
	stmts map[string]*fame.Stmt
	// server and replica are the console's network roles (features
	// Server, Replication): .repl serve exposes this product on the wire
	// protocol, .repl from streams another primary's WAL into it.
	server  *fame.Server
	replica *fame.Replica
}

// New creates a shell over an open product, writing output to out.
func New(db *fame.DB, out io.Writer) *Shell {
	return &Shell{db: db, out: out}
}

// command is one console command: the .help text is generated from
// this table, so usage strings and the command list cannot drift apart.
type command struct {
	name string // leading "." marks a dot-command
	args string
	help string
	run  func(s *Shell, fields []string) (done bool)
}

// commands is the single source of truth for the console, in .help
// order. The SQL fallback (any line that is not a command) is appended
// to the help text separately since it has no name to dispatch on.
// Populated in init: .help walks the table, which Go's initializer
// cycle check cannot see through for a composite literal.
var commands []command

func init() {
	commands = []command{
		{"put", "<key> <value>", "store a value (feature Put)", (*Shell).cmdPut},
		{"get", "<key>", "read a value (feature Get)", (*Shell).cmdGet},
		{"del", "<key>", "delete a key (feature Remove)", (*Shell).cmdDel},
		{"update", "<key> <value>", "replace an existing value (feature Update)", (*Shell).cmdUpdate},
		{"scan", "[from [to]]", "list entries (feature Get)", (*Shell).cmdScan},
		{".features", "", "show the product's selected features", (*Shell).cmdFeatures},
		{".stats", "[prom|json]", "dump runtime metrics (feature Statistics)", (*Shell).cmdStats},
		{".trace", "on|off|dump|slow", "control span recording (feature Tracing)", (*Shell).cmdTrace},
		{".monitor", "[events [n]]", "show windowed rates and watchdog state (feature Monitor)", (*Shell).cmdMonitor},
		{".snapshot", "[begin|get <key>|scan [from [to]]|end]", "read a pinned committed version (feature MVCC)", (*Shell).cmdSnapshot},
		{".prepare", "[<name> <sql with ?>|close <name>]", "compile a named statement (feature CompiledQueries)", (*Shell).cmdPrepare},
		{".exec", "<name> [arg...]", "run a prepared statement with bound args", (*Shell).cmdExec},
		{".explain", "[analyze] <sql>", "show a statement's plan tree (feature QueryStats)", (*Shell).cmdExplain},
		{".queries", "[top <n>|slow]", "per-shape statement profiles and the slow-query log (feature QueryStats)", (*Shell).cmdQueries},
		{".repl", "serve <addr>|from <addr>|status|stop", "network serving and WAL-shipping replication (features Server, Replication)", (*Shell).cmdRepl},
		{".flush", "", "force all state durable (drains pending group commits)", (*Shell).cmdFlush},
		{".verify", "", "scrub pages, journal and B+-tree (features Checksums, Transaction)", (*Shell).cmdVerify},
		{".help", "", "this text", (*Shell).cmdHelp},
		{".quit", "", "exit", (*Shell).cmdQuit},
	}
}

// Run reads commands from r until EOF or .quit.
func (s *Shell) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	fmt.Fprint(s.out, "fame> ")
	for sc.Scan() {
		if s.Execute(sc.Text()) {
			return nil
		}
		fmt.Fprint(s.out, "fame> ")
	}
	return sc.Err()
}

// Execute runs one command line and reports whether the shell should
// exit.
func (s *Shell) Execute(line string) (done bool) {
	line = strings.TrimSpace(line)
	if line == "" {
		return false
	}
	fields := strings.Fields(line)
	name := fields[0]
	if !strings.HasPrefix(name, ".") {
		name = strings.ToLower(name)
	}
	if name == ".exit" { // undocumented alias
		name = ".quit"
	}
	for i := range commands {
		if commands[i].name == name {
			return commands[i].run(s, fields)
		}
	}
	if strings.HasPrefix(name, ".") {
		fmt.Fprintf(s.out, "unknown command %s (try .help)\n", name)
		return false
	}
	// Anything else is handed to the SQL engine.
	res, err := s.db.Exec(line)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return false
	}
	s.printResult(res)
	return false
}

func (s *Shell) cmdHelp(fields []string) bool {
	fmt.Fprintln(s.out, "commands:")
	width := len("<sql statement>")
	for _, c := range commands {
		if n := len(c.name) + 1 + len(c.args); n > width {
			width = n
		}
	}
	for _, c := range commands {
		sig := c.name
		if c.args != "" {
			sig += " " + c.args
		}
		fmt.Fprintf(s.out, "  %-*s  %s\n", width, sig, c.help)
	}
	fmt.Fprintf(s.out, "  %-*s  %s\n", width, "<sql statement>", "execute SQL (feature SQLEngine)")
	return false
}

func (s *Shell) cmdQuit([]string) bool {
	if s.snap != nil {
		s.snap.Abort()
		s.snap = nil
	}
	for name, st := range s.stmts {
		st.Close()
		delete(s.stmts, name)
	}
	return true
}

// cmdPrepare compiles one SQL statement (with optional `?`
// placeholders) under a console-local name. Bare ".prepare" lists the
// open statements; "close <name>" retires one.
func (s *Shell) cmdPrepare(fields []string) bool {
	switch {
	case len(fields) == 1:
		if len(s.stmts) == 0 {
			fmt.Fprintln(s.out, "no prepared statements (try .prepare <name> <sql>)")
			return false
		}
		names := make([]string, 0, len(s.stmts))
		for name := range s.stmts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(s.out, "%s (%d params)\n", name, s.stmts[name].NumParams())
		}
	case fields[1] == "close":
		if len(fields) != 3 {
			fmt.Fprintln(s.out, "usage: .prepare close <name>")
			return false
		}
		st, ok := s.stmts[fields[2]]
		if !ok {
			fmt.Fprintf(s.out, "no prepared statement %q\n", fields[2])
			return false
		}
		st.Close()
		delete(s.stmts, fields[2])
		fmt.Fprintln(s.out, "closed")
	case len(fields) >= 3:
		name := fields[1]
		st, err := s.db.Prepare(strings.Join(fields[2:], " "))
		if err != nil {
			s.featureErr("CompiledQueries", ".prepare", err)
			return false
		}
		if old, ok := s.stmts[name]; ok {
			old.Close()
		}
		if s.stmts == nil {
			s.stmts = make(map[string]*fame.Stmt)
		}
		s.stmts[name] = st
		fmt.Fprintf(s.out, "prepared %s (%d params)\n", name, st.NumParams())
	default:
		fmt.Fprintln(s.out, "usage: .prepare [<name> <sql with ?>|close <name>]")
	}
	return false
}

// cmdExec binds positional arguments to a statement prepared with
// .prepare and runs its compiled plan — no parsing, no planning.
// Arguments parse as int, then float, then true/false, else text;
// quote with '...' to force text.
func (s *Shell) cmdExec(fields []string) bool {
	if len(fields) < 2 {
		fmt.Fprintln(s.out, "usage: .exec <name> [arg...]")
		return false
	}
	st, ok := s.stmts[fields[1]]
	if !ok {
		fmt.Fprintf(s.out, "no prepared statement %q (try .prepare)\n", fields[1])
		return false
	}
	args := make([]fame.Value, len(fields)-2)
	for i, f := range fields[2:] {
		args[i] = parseArg(f)
	}
	res, err := st.Exec(args...)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return false
	}
	s.printResult(res)
	return false
}

// parseArg converts one console token into a typed SQL value.
func parseArg(tok string) fame.Value {
	if strings.HasPrefix(tok, "'") && strings.HasSuffix(tok, "'") && len(tok) >= 2 {
		return fame.StringValue(tok[1 : len(tok)-1])
	}
	if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return fame.IntValue(n)
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return fame.FloatValue(f)
	}
	if b, err := strconv.ParseBool(tok); err == nil {
		return fame.BoolValue(b)
	}
	return fame.StringValue(tok)
}

func (s *Shell) cmdPut(fields []string) bool {
	if len(fields) != 3 {
		fmt.Fprintln(s.out, "usage: put <key> <value>")
		return false
	}
	s.report(s.db.Put([]byte(fields[1]), []byte(fields[2])))
	return false
}

func (s *Shell) cmdGet(fields []string) bool {
	if len(fields) != 2 {
		fmt.Fprintln(s.out, "usage: get <key>")
		return false
	}
	v, err := s.db.Get([]byte(fields[1]))
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return false
	}
	fmt.Fprintln(s.out, string(v))
	return false
}

func (s *Shell) cmdDel(fields []string) bool {
	if len(fields) != 2 {
		fmt.Fprintln(s.out, "usage: del <key>")
		return false
	}
	s.report(s.db.Remove([]byte(fields[1])))
	return false
}

func (s *Shell) cmdUpdate(fields []string) bool {
	if len(fields) != 3 {
		fmt.Fprintln(s.out, "usage: update <key> <value>")
		return false
	}
	s.report(s.db.Update([]byte(fields[1]), []byte(fields[2])))
	return false
}

func (s *Shell) cmdScan(fields []string) bool {
	var from, to []byte
	if len(fields) > 1 {
		from = []byte(fields[1])
	}
	if len(fields) > 2 {
		to = []byte(fields[2])
	}
	n := 0
	err := s.db.Scan(from, to, func(k, v []byte) bool {
		fmt.Fprintf(s.out, "%s = %s\n", k, v)
		n++
		return true
	})
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return false
	}
	fmt.Fprintf(s.out, "(%d rows)\n", n)
	return false
}

// cmdSnapshot drives the MVCC feature's snapshot API from the console.
// "begin" pins the newest committed version; "get" and "scan" then read
// against that pin — lock-free and isolated from every later commit —
// until "end" releases it. Bare ".snapshot" reports the open pin.
func (s *Shell) cmdSnapshot(fields []string) bool {
	sub := ""
	if len(fields) > 1 {
		sub = fields[1]
	}
	switch sub {
	case "begin":
		if s.snap != nil {
			s.snap.Abort()
			s.snap = nil
		}
		tx, err := s.db.BeginSnapshot()
		if err != nil {
			s.featureErr("MVCC", ".snapshot", err)
			return false
		}
		s.snap = tx
		s.printSnapStatus("pinned")
	case "get":
		if len(fields) != 3 {
			fmt.Fprintln(s.out, "usage: .snapshot get <key>")
			return false
		}
		if s.snap == nil {
			fmt.Fprintln(s.out, "no snapshot open (try .snapshot begin)")
			return false
		}
		v, err := s.snap.Get([]byte(fields[2]))
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return false
		}
		fmt.Fprintln(s.out, string(v))
	case "scan":
		if s.snap == nil {
			fmt.Fprintln(s.out, "no snapshot open (try .snapshot begin)")
			return false
		}
		var from, to []byte
		if len(fields) > 2 {
			from = []byte(fields[2])
		}
		if len(fields) > 3 {
			to = []byte(fields[3])
		}
		n := 0
		err := s.snap.Scan(from, to, func(k, v []byte) bool {
			fmt.Fprintf(s.out, "%s = %s\n", k, v)
			n++
			return true
		})
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return false
		}
		fmt.Fprintf(s.out, "(%d rows)\n", n)
	case "end":
		if s.snap == nil {
			fmt.Fprintln(s.out, "no snapshot open")
			return false
		}
		seq, _ := s.snap.SnapshotSeq()
		s.snap.Abort()
		s.snap = nil
		fmt.Fprintf(s.out, "snapshot v%d released\n", seq)
	case "":
		if s.snap == nil {
			fmt.Fprintln(s.out, "no snapshot open (try .snapshot begin)")
			return false
		}
		s.printSnapStatus("open")
	default:
		fmt.Fprintln(s.out, "usage: .snapshot [begin|get <key>|scan [from [to]]|end]")
	}
	return false
}

// printSnapStatus prints the open snapshot's version and entry count.
func (s *Shell) printSnapStatus(verb string) {
	seq, _ := s.snap.SnapshotSeq()
	if n, err := s.snap.Len(); err == nil {
		fmt.Fprintf(s.out, "snapshot v%d %s (%d entries)\n", seq, verb, n)
	} else {
		fmt.Fprintf(s.out, "snapshot v%d %s\n", seq, verb)
	}
}

func (s *Shell) cmdFlush(fields []string) bool {
	// Under GroupCommit up to batch-limit-1 commits may sit in the
	// deferred durability window; .flush quiesces the pipeline and syncs.
	if err := s.db.Sync(); err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return false
	}
	fmt.Fprintln(s.out, "flushed")
	return false
}

func (s *Shell) cmdVerify(fields []string) bool {
	rep, err := s.db.Verify()
	if err != nil {
		if errors.Is(err, fame.ErrNotComposed) {
			s.featureErr("Checksums or Transaction", ".verify", err)
		} else {
			fmt.Fprintln(s.out, "error:", err)
		}
		return false
	}
	fmt.Fprintln(s.out, rep.String())
	if s.db.Degraded() {
		fmt.Fprintln(s.out, "warning: engine is degraded (read-only)")
	}
	if rep.Ok() {
		fmt.Fprintln(s.out, "ok")
	} else {
		fmt.Fprintln(s.out, "CORRUPTION FOUND")
	}
	return false
}

func (s *Shell) cmdFeatures(fields []string) bool {
	feats := s.db.Features()
	sort.Strings(feats)
	fmt.Fprintln(s.out, strings.Join(feats, " "))
	return false
}

func (s *Shell) cmdStats(fields []string) bool {
	snap, err := s.db.Stats()
	if err != nil {
		s.featureErr("Statistics", ".stats", err)
		return false
	}
	format := ""
	if len(fields) > 1 {
		format = fields[1]
	}
	switch format {
	case "prom":
		if err := snap.WritePrometheus(s.out); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
	case "json":
		if err := snap.WriteJSON(s.out); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
	default:
		fmt.Fprint(s.out, snap.Format())
	}
	return false
}

func (s *Shell) cmdTrace(fields []string) bool {
	sub := ""
	if len(fields) > 1 {
		sub = fields[1]
	}
	switch sub {
	case "on", "off":
		if err := s.db.SetTracing(sub == "on"); err != nil {
			s.featureErr("Tracing", ".trace", err)
			return false
		}
		fmt.Fprintln(s.out, "tracing", sub)
	case "dump", "slow":
		snap, err := s.db.Trace()
		if err != nil {
			s.featureErr("Tracing", ".trace", err)
			return false
		}
		var werr error
		switch {
		case sub == "slow":
			werr = snap.WriteSlow(s.out)
		case len(fields) > 2 && fields[2] == "chrome":
			werr = snap.WriteChrome(s.out)
		case len(fields) > 2 && fields[2] == "json":
			werr = snap.WriteJSON(s.out)
		default:
			werr = snap.WriteText(s.out)
		}
		if werr != nil {
			fmt.Fprintln(s.out, "error:", werr)
		}
	default:
		fmt.Fprintln(s.out, "usage: .trace on|off|dump [chrome|json]|slow")
	}
	return false
}

// cmdExplain prepends EXPLAIN to the rest of the line and runs it, so
// ".explain SELECT ..." shows the plan tree without executing and
// ".explain analyze SELECT ..." executes and appends true counters.
func (s *Shell) cmdExplain(fields []string) bool {
	if len(fields) < 2 {
		fmt.Fprintln(s.out, "usage: .explain [analyze] <sql statement>")
		return false
	}
	res, err := s.db.Exec("EXPLAIN " + strings.Join(fields[1:], " "))
	if err != nil {
		s.featureErr("QueryStats", ".explain", err)
		return false
	}
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Fprintln(s.out, v.String())
		}
	}
	return false
}

// cmdQueries prints the QueryStats feature's per-shape statement
// profiles, hottest (by cumulative time) first. ".queries top <n>"
// bounds the listing, ".queries slow" prints the slow-query ring
// without draining it.
func (s *Shell) cmdQueries(fields []string) bool {
	snap, err := s.db.Stats()
	if err != nil {
		s.featureErr("Statistics", ".queries", err)
		return false
	}
	q := snap.Queries
	if q == nil {
		s.featureErr("QueryStats", ".queries", fmt.Errorf("query profiles: %w", fame.ErrNotComposed))
		return false
	}
	if len(fields) > 1 && fields[1] == "slow" {
		if q.SlowDropped > 0 {
			fmt.Fprintf(s.out, "(%d older slow queries dropped)\n", q.SlowDropped)
		}
		if len(q.Slow) == 0 {
			fmt.Fprintf(s.out, "no statements over %s\n", fmtNs(float64(q.SlowThresholdNs)))
			return false
		}
		for _, e := range q.Slow {
			line := fmt.Sprintf("%-9s %s  scanned=%d returned=%d", fmtNs(float64(e.DurNs)), e.Shape, e.RowsScanned, e.RowsReturned)
			if e.TraceRoot != 0 {
				line += fmt.Sprintf("  trace=%d", e.TraceRoot)
			}
			if e.Err != "" {
				line += "  error=" + e.Err
			}
			fmt.Fprintln(s.out, line)
		}
		return false
	}
	n := len(q.Shapes)
	if len(fields) > 2 && fields[1] == "top" {
		if v, err := strconv.Atoi(fields[2]); err == nil && v < n {
			n = v
		}
	}
	if n == 0 {
		fmt.Fprintln(s.out, "no statements profiled yet")
		return false
	}
	fmt.Fprintf(s.out, "%-7s %-9s %-9s %-8s %-8s %-5s %s\n",
		"count", "total", "p99", "scanned", "returned", "hits", "shape")
	for _, sh := range q.Shapes[:n] {
		fmt.Fprintf(s.out, "%-7d %-9s %-9s %-8d %-8d %-5d %s\n",
			sh.Count, fmtNs(float64(sh.TotalNs)), fmtNs(sh.Latency.P99()),
			sh.RowsScanned, sh.RowsReturned, sh.PlanHits, sh.Shape)
		if sh.LastError != "" {
			fmt.Fprintf(s.out, "        last error: %s\n", sh.LastError)
		}
	}
	if dropped := len(q.Shapes) - n; dropped > 0 {
		fmt.Fprintf(s.out, "(%d more shapes; .queries top %d to widen)\n", dropped, len(q.Shapes))
	}
	fmt.Fprintf(s.out, "slow ring: %d retained over %s (.queries slow)\n",
		len(q.Slow), fmtNs(float64(q.SlowThresholdNs)))
	return false
}

// cmdMonitor prints the Monitor feature's live picture: one windowed
// reading (rates, hit rate, latency quantiles), the currently-firing
// watchdog rules, and the tail of the operational event log.
// ".monitor events [n]" lists just the last n events (default 10).
func (s *Shell) cmdMonitor(fields []string) bool {
	w, err := s.db.MonitorWindow()
	if err != nil {
		s.featureErr("Monitor", ".monitor", err)
		return false
	}
	events, dropped, err := s.db.MonitorEvents()
	if err != nil {
		s.featureErr("Monitor", ".monitor", err)
		return false
	}

	if len(fields) > 1 && fields[1] == "events" {
		n := 10
		if len(fields) > 2 {
			fmt.Sscanf(fields[2], "%d", &n)
		}
		if len(events) > n {
			events = events[len(events)-n:]
		}
		if dropped > 0 {
			fmt.Fprintf(s.out, "(%d older events dropped)\n", dropped)
		}
		if len(events) == 0 {
			fmt.Fprintln(s.out, "no operational events")
		}
		for _, e := range events {
			fmt.Fprintln(s.out, e)
		}
		return false
	}

	fmt.Fprintf(s.out, "window   %.1fs over %d samples\n", w.Seconds, w.Samples)
	health := "ok"
	if w.Degraded {
		health = "DEGRADED: " + w.DegradedReason
	}
	fmt.Fprintf(s.out, "health   %s\n", health)
	fmt.Fprintf(s.out, "rates    get %.1f/s  put %.1f/s  commit %.1f/s  stmt %.1f/s\n",
		w.GetsPerSec, w.PutsPerSec, w.CommitsPerSec, w.StmtsPerSec)
	if w.HitRate >= 0 {
		fmt.Fprintf(s.out, "cache    hit rate %.3f\n", w.HitRate)
	} else {
		fmt.Fprintln(s.out, "cache    no traffic in window")
	}
	fmt.Fprintf(s.out, "latency  get p50/p99 %s/%s  put p50/p99 %s/%s\n",
		fmtNs(w.GetP50Ns), fmtNs(w.GetP99Ns), fmtNs(w.PutP50Ns), fmtNs(w.PutP99Ns))
	if w.CommitsPerSec > 0 || w.CommitP99Ns > 0 {
		fmt.Fprintf(s.out, "commit   p99 %s  stall p50/p99 %s/%s  wal growth %d bytes\n",
			fmtNs(w.CommitP99Ns), fmtNs(w.StallP50Ns), fmtNs(w.StallP99Ns), w.WALGrowthBytes)
	}
	alerts := 0
	for _, e := range events {
		if e.Alert() {
			alerts++
		}
	}
	fmt.Fprintf(s.out, "watchdog %d events retained (%d alerts, %d dropped)\n",
		len(events)+int(dropped), alerts, dropped)
	if n := len(events); n > 0 {
		fmt.Fprintln(s.out, "last:   ", events[n-1])
	}
	return false
}

// cmdRepl drives the product's network roles. ".repl serve <addr>"
// starts the wire-protocol server (feature Server), ".repl from
// <addr>" streams the primary at addr into this product (feature
// Replication), ".repl status" shows both roles plus the shipping
// counters, ".repl stop" detaches the replica stream.
func (s *Shell) cmdRepl(fields []string) bool {
	sub := "status"
	if len(fields) > 1 {
		sub = fields[1]
	}
	switch sub {
	case "serve":
		if len(fields) < 3 {
			fmt.Fprintln(s.out, "usage: .repl serve <addr>")
			return false
		}
		if s.server != nil {
			fmt.Fprintf(s.out, "already serving on %s\n", s.server.Addr())
			return false
		}
		srv, err := s.db.Serve(fields[2])
		if err != nil {
			s.featureErr("Server", ".repl serve", err)
			return false
		}
		s.server = srv
		fmt.Fprintf(s.out, "serving on %s\n", srv.Addr())
	case "from":
		if len(fields) < 3 {
			fmt.Fprintln(s.out, "usage: .repl from <addr>")
			return false
		}
		if s.replica != nil {
			fmt.Fprintln(s.out, "already replicating (.repl stop first)")
			return false
		}
		rep, err := s.db.ReplicateFrom(fields[2])
		if err != nil {
			s.featureErr("Replication", ".repl from", err)
			return false
		}
		s.replica = rep
		fmt.Fprintf(s.out, "replicating from %s\n", fields[2])
	case "stop":
		if s.replica == nil {
			fmt.Fprintln(s.out, "not replicating")
			return false
		}
		s.replica.Stop()
		fmt.Fprintf(s.out, "replication stopped at offset %d\n", s.replica.Offset())
		s.replica = nil
	case "status":
		if s.server != nil {
			fmt.Fprintf(s.out, "serving   %s\n", s.server.Addr())
		} else {
			fmt.Fprintln(s.out, "serving   no (.repl serve <addr>)")
		}
		if s.replica != nil {
			fmt.Fprintf(s.out, "replica   applied through offset %d\n", s.replica.Offset())
		} else {
			fmt.Fprintln(s.out, "replica   no (.repl from <addr>)")
		}
		snap, err := s.db.Stats()
		if err != nil {
			// Shipping counters need the Statistics feature; the roles
			// above still work without it.
			return false
		}
		r := snap.Repl
		fmt.Fprintf(s.out, "shipped   %d chunks / %d bytes  acks %d\n",
			r.ShippedChunks, r.ShippedBytes, r.Acks)
		fmt.Fprintf(s.out, "resync    catch-ups %d  snapshots %d  drops %d  stale marks %d\n",
			r.CatchUps, r.Snapshots, r.Drops, r.StaleMarks)
		fmt.Fprintf(s.out, "replicas  %d connected, max lag %d bytes\n",
			r.Connected, r.MaxLagBytes)
	default:
		fmt.Fprintln(s.out, "usage: .repl serve <addr>|from <addr>|status|stop")
	}
	return false
}

// fmtNs renders a nanosecond quantity with time.Duration's formatting,
// "-" when the window saw no observations.
func fmtNs(ns float64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(int64(ns)).String()
}

// featureErr prints a one-line explanation when an introspection
// command's backing feature is absent from the derived product.
func (s *Shell) featureErr(feature, cmd string, err error) {
	if errors.Is(err, fame.ErrNotComposed) {
		fmt.Fprintf(s.out, "%s feature not composed into this product: derive it with %q to use %s\n",
			feature, feature, cmd)
		return
	}
	fmt.Fprintln(s.out, "error:", err)
}

func (s *Shell) report(err error) {
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	fmt.Fprintln(s.out, "ok")
}

func (s *Shell) printResult(res *fame.Result) {
	if len(res.Columns) > 0 {
		fmt.Fprintln(s.out, strings.Join(res.Columns, " | "))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Fprintln(s.out, strings.Join(cells, " | "))
		}
		fmt.Fprintf(s.out, "(%d rows, %s)\n", len(res.Rows), res.Plan)
		return
	}
	fmt.Fprintf(s.out, "ok (%d affected)\n", res.Affected)
}
