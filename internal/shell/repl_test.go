package shell

import (
	"strings"
	"testing"
	"time"
)

// replFeatures is the network console product: transactional stack,
// shipping, and the TCP front end, plus Statistics so .repl status can
// show the shipping counters.
var replFeatures = []string{
	"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
	"Put", "Get", "Update", "Remove",
	"Transaction", "GroupCommit", "Locking", "Recovery",
	"Statistics", "Replication", "Server",
}

func TestShellRepl(t *testing.T) {
	primary, pout := newShell(t, replFeatures...)
	replica, rout := newShell(t, replFeatures...)

	primary.Execute(".repl serve 127.0.0.1:0")
	got := pout.String()
	if !strings.Contains(got, "serving on 127.0.0.1:") {
		t.Fatalf(".repl serve output = %q", got)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(got, "serving on "))

	pout.Reset()
	primary.Execute(".repl serve 127.0.0.1:0")
	if !strings.Contains(pout.String(), "already serving") {
		t.Errorf("second serve output = %q", pout.String())
	}

	replica.Execute(".repl from " + addr)
	if !strings.Contains(rout.String(), "replicating from "+addr) {
		t.Fatalf(".repl from output = %q", rout.String())
	}

	primary.Execute("put city dresden")
	deadline := time.Now().Add(10 * time.Second)
	for {
		rout.Reset()
		replica.Execute("get city")
		if strings.Contains(rout.String(), "dresden") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never saw the put; last get = %q", rout.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	pout.Reset()
	primary.Execute(".repl status")
	status := pout.String()
	for _, want := range []string{"serving   " + addr, "shipped", "replicas  1 connected"} {
		if !strings.Contains(status, want) {
			t.Errorf(".repl status output %q missing %q", status, want)
		}
	}

	rout.Reset()
	replica.Execute(".repl status")
	if !strings.Contains(rout.String(), "applied through offset") {
		t.Errorf("replica .repl status output = %q", rout.String())
	}

	rout.Reset()
	replica.Execute(".repl stop")
	if !strings.Contains(rout.String(), "replication stopped at offset") {
		t.Errorf(".repl stop output = %q", rout.String())
	}
	rout.Reset()
	replica.Execute(".repl stop")
	if !strings.Contains(rout.String(), "not replicating") {
		t.Errorf("second .repl stop output = %q", rout.String())
	}
}

func TestShellReplNotComposed(t *testing.T) {
	s, out := newShell(t, "Linux", "BPlusTree", "BufferManager", "LRU", "Put", "Get")

	s.Execute(".repl serve 127.0.0.1:0")
	if !strings.Contains(out.String(), "Server feature not composed") {
		t.Errorf(".repl serve output = %q", out.String())
	}
	out.Reset()
	s.Execute(".repl from 127.0.0.1:1")
	if !strings.Contains(out.String(), "Replication feature not composed") {
		t.Errorf(".repl from output = %q", out.String())
	}
	out.Reset()
	s.Execute(".repl bogus")
	if !strings.Contains(out.String(), "usage: .repl") {
		t.Errorf(".repl bogus output = %q", out.String())
	}
}
