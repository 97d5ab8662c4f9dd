package composer

import (
	"errors"
	"fmt"
	"testing"

	"famedb/internal/access"
	"famedb/internal/core"
	"famedb/internal/index"
	"famedb/internal/osal"
)

func TestComposeMinimalSensorNode(t *testing.T) {
	inst, err := ComposeProduct(Options{}, "NutOS", "ListIndex", "Put", "Get")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Platform.Name != "NutOS" {
		t.Fatalf("platform = %s", inst.Platform.Name)
	}
	if inst.Txn != nil || inst.SQL != nil {
		t.Fatal("minimal product composed optional subsystems")
	}
	if err := inst.Store.Put([]byte("r1"), []byte("23.5")); err != nil {
		t.Fatal(err)
	}
	v, err := inst.Store.Get([]byte("r1"))
	if err != nil || string(v) != "23.5" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	// Remove and Update are not part of this product.
	if err := inst.Store.Remove([]byte("r1")); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("Remove = %v", err)
	}
	if err := inst.Store.Update([]byte("r1"), []byte("x")); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("Update = %v", err)
	}
}

func TestComposeFullProduct(t *testing.T) {
	inst, err := ComposeProduct(Options{},
		"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
		"BufferManager", "LFU", "DynamicAlloc",
		"Put", "Get", "Remove", "Update",
		"Transaction", "GroupCommit", "Recovery",
		"Optimizer", "SQLEngine")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Txn == nil || inst.SQL == nil {
		t.Fatal("full product missing subsystems")
	}
	// KV path.
	tx := inst.Txn.Begin()
	tx.Put([]byte("k"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := inst.Store.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	// SQL path with the optimizer.
	if _, err := inst.SQL.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.SQL.Exec("INSERT INTO t VALUES (1, 'one'), (2, 'two')"); err != nil {
		t.Fatal(err)
	}
	r, err := inst.SQL.Exec("SELECT v FROM t WHERE id = 2")
	if err != nil || len(r.Rows) != 1 || r.Rows[0][0].Str != "two" {
		t.Fatalf("SQL = %v, %v", r, err)
	}
	if r.Plan != "point-lookup" {
		t.Fatalf("plan = %q, want point-lookup with Optimizer", r.Plan)
	}
	if _, ok := inst.CacheStats(); !ok {
		t.Fatal("buffer manager missing")
	}
}

func TestComposeRejectsInvalidConfig(t *testing.T) {
	m := core.FAMEModel()
	c := m.NewConfiguration()
	// Incomplete configuration.
	if _, err := Compose(c, Options{}); err == nil {
		t.Fatal("incomplete configuration should fail")
	}
	// Wrong model.
	bc, err := core.BDBModel().Product("Btree")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compose(bc, Options{}); err == nil {
		t.Fatal("foreign model should fail")
	}
}

func TestComposeFineGrainedBTreeOps(t *testing.T) {
	// Remove selected (forces BTreeRemove), Update not selected.
	inst, err := ComposeProduct(Options{}, "Linux", "BPlusTree", "Put", "Get", "Remove")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	inst.Store.Put([]byte("k"), []byte("v"))
	if err := inst.Store.Remove([]byte("k")); err != nil {
		t.Fatalf("Remove with BTreeRemove: %v", err)
	}
	// Update was never selected: both the access op and the tree op
	// are absent.
	err = inst.Store.Update([]byte("k"), []byte("v2"))
	if !errors.Is(err, access.ErrNotComposed) && !errors.Is(err, index.ErrOpNotComposed) {
		t.Fatalf("Update = %v", err)
	}
}

func TestNutOSGetsStaticArenaAndSmallPages(t *testing.T) {
	inst, err := ComposeProduct(Options{}, "NutOS", "BPlusTree", "BufferManager", "Put", "Get")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Platform.PageSize != 512 {
		t.Fatalf("page size = %d", inst.Platform.PageSize)
	}
	if !inst.Configuration.Has("StaticAlloc") {
		t.Fatal("NutOS+BufferManager must propagate StaticAlloc")
	}
	if inst.RAM() > osal.NutOS.RAMBudget {
		t.Fatalf("RAM %d exceeds the NutOS budget %d", inst.RAM(), osal.NutOS.RAMBudget)
	}
}

func TestROMOrdering(t *testing.T) {
	small, err := ComposeProduct(Options{}, "NutOS", "ListIndex", "Put", "Get")
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	big, err := ComposeProduct(Options{},
		"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
		"BufferManager", "LRU", "DynamicAlloc",
		"Put", "Get", "Remove", "Update",
		"Transaction", "ForceCommit", "Recovery", "SQLEngine", "Optimizer")
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	sr, err := small.ROM()
	if err != nil {
		t.Fatal(err)
	}
	br, err := big.ROM()
	if err != nil {
		t.Fatal(err)
	}
	if sr >= br {
		t.Fatalf("sensor node ROM %d >= full product ROM %d", sr, br)
	}
	if small.RAM() >= big.RAM() {
		t.Fatalf("sensor node RAM %d >= full product RAM %d", small.RAM(), big.RAM())
	}
}

func TestRecomposeOverExistingFilesystem(t *testing.T) {
	fs := osal.NewMemFS()
	features := []string{"Linux", "BPlusTree", "BTreeRemove", "Put", "Get", "Remove", "SQLEngine"}
	inst, err := ComposeProduct(Options{FS: fs}, features...)
	if err != nil {
		t.Fatal(err)
	}
	inst.Store.Put([]byte("persist"), []byte("me"))
	if _, err := inst.SQL.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.SQL.Exec("INSERT INTO t VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}

	inst2, err := ComposeProduct(Options{FS: fs}, features...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst2.Close()
	v, err := inst2.Store.Get([]byte("persist"))
	if err != nil || string(v) != "me" {
		t.Fatalf("Get after recompose = %q, %v", v, err)
	}
	r, err := inst2.SQL.Exec("SELECT * FROM t")
	if err != nil || len(r.Rows) != 1 || r.Rows[0][0].Int != 7 {
		t.Fatalf("SQL after recompose = %v, %v", r, err)
	}
}

func TestRecomposeWithDifferentIndexRejected(t *testing.T) {
	fs := osal.NewMemFS()
	inst, err := ComposeProduct(Options{FS: fs}, "Linux", "BPlusTree", "Put", "Get")
	if err != nil {
		t.Fatal(err)
	}
	inst.Close()
	if _, err := ComposeProduct(Options{FS: fs}, "Linux", "ListIndex", "Put", "Get"); err == nil {
		t.Fatal("index mismatch should be rejected")
	}
}

func TestTransactionRecoveryThroughComposition(t *testing.T) {
	fs := osal.NewMemFS()
	features := []string{
		"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
		"Put", "Get", "Transaction", "ForceCommit", "Recovery",
	}
	inst, err := ComposeProduct(Options{FS: fs}, features...)
	if err != nil {
		t.Fatal(err)
	}
	tx := inst.Txn.Begin()
	tx.Put([]byte("durable"), []byte("yes"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, cache contents lost (never synced to the file).
	inst2, err := ComposeProduct(Options{FS: fs}, features...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst2.Close()
	v, err := inst2.Store.Get([]byte("durable"))
	if err != nil || string(v) != "yes" {
		t.Fatalf("recovered value = %q, %v", v, err)
	}
}

func TestGroupCommitComposition(t *testing.T) {
	inst, err := ComposeProduct(Options{GroupCommitBatch: 4},
		"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
		"Put", "Get", "Transaction", "GroupCommit")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	for i := 0; i < 8; i++ {
		tx := inst.Txn.Begin()
		tx.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if syncs := inst.Txn.LogSyncs(); syncs != 2 {
		t.Fatalf("group commit syncs = %d, want 2", syncs)
	}
}

func TestEveryFAMEProductComposes(t *testing.T) {
	m := core.FAMEModel()
	for _, p := range core.FAMEProducts() {
		cfg, err := m.Product(p.Features...)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		inst, err := Compose(cfg, Options{})
		if err != nil {
			t.Fatalf("%s: compose: %v", p.Name, err)
		}
		// Smoke-test whatever the product can do.
		if cfg.Has("Put") {
			if err := inst.Store.Put([]byte("k"), []byte("v")); err != nil {
				t.Errorf("%s: Put: %v", p.Name, err)
			}
		}
		if cfg.Has("Get") && cfg.Has("Put") {
			if v, err := inst.Store.Get([]byte("k")); err != nil || string(v) != "v" {
				t.Errorf("%s: Get = %q, %v", p.Name, v, err)
			}
		}
		if err := inst.Close(); err != nil {
			t.Errorf("%s: close: %v", p.Name, err)
		}
	}
}
