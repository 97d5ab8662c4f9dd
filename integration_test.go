package fame

// Whole-repository integration sweep: derive a spread of random valid
// products from the feature model, compose every one, and exercise
// whatever functionality it selected. This is the product-line
// equivalent of configuration-coverage testing — no single product
// exercises every interaction, so we sample the space.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"famedb/internal/core"
)

// randomProducts derives n distinct valid configurations, spread over
// the space by random decisions, deterministically from seed.
func randomProducts(t *testing.T, n int, seed int64) []*Configuration {
	t.Helper()
	m := core.FAMEModel()
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []*Configuration
	for attempts := 0; len(out) < n && attempts < n*20; attempts++ {
		cfg := m.NewConfiguration()
		for _, f := range m.ConcreteFeatures() {
			if cfg.State(f.Name) != core.Undecided {
				continue
			}
			if rng.Intn(2) == 0 {
				if cfg.Select(f.Name) != nil {
					cfg.Deselect(f.Name)
				}
			} else {
				if cfg.Deselect(f.Name) != nil {
					cfg.Select(f.Name)
				}
			}
		}
		if err := cfg.Complete(core.PreferDeselect); err != nil {
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("random completion invalid: %v", err)
		}
		key := cfg.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, cfg)
	}
	if len(out) < n {
		t.Fatalf("only %d distinct products derived", len(out))
	}
	return out
}

func TestRandomProductSweep(t *testing.T) {
	for i, cfg := range randomProducts(t, 40, 2026) {
		cfg := cfg
		t.Run(fmt.Sprintf("product-%02d", i), func(t *testing.T) {
			db, err := OpenConfig(cfg, Options{})
			if err != nil {
				t.Fatalf("compose %s: %v", cfg, err)
			}
			defer db.Close()
			exerciseProduct(t, db)
		})
	}
}

// exerciseProduct drives whatever the product composed and checks that
// absent features consistently refuse.
func exerciseProduct(t *testing.T, db *DB) {
	t.Helper()
	key, val := []byte("probe"), []byte("value")

	if db.Has("Put") {
		if err := db.Put(key, val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	} else if err := db.Put(key, val); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Put without feature = %v", err)
	}

	if db.Has("Get") {
		v, err := db.Get(key)
		switch {
		case db.Has("Put"):
			if err != nil || string(v) != "value" {
				t.Fatalf("Get = %q, %v", v, err)
			}
		case !errors.Is(err, ErrNotFound):
			t.Fatalf("Get on empty store = %v", err)
		}
	} else if _, err := db.Get(key); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Get without feature = %v", err)
	}

	if db.Has("Update") && db.Has("Put") {
		if err := db.Update(key, []byte("v2")); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	if db.Has("Remove") && db.Has("Put") {
		if err := db.Remove(key); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		db.Put(key, val) // restore for later probes
	}

	if db.Has("Transaction") {
		tx, err := db.Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if err := tx.Put([]byte("txk"), []byte("txv")); err != nil {
			t.Fatalf("tx.Put: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if db.Has("Get") {
			if _, err := db.Get([]byte("txk")); err != nil {
				t.Fatalf("committed key unreadable: %v", err)
			}
		}
	} else if _, err := db.Begin(); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Begin without feature = %v", err)
	}

	if db.Has("SQLEngine") {
		if _, err := db.Exec("CREATE TABLE sweep (id INT PRIMARY KEY, v TEXT)"); err != nil {
			t.Fatalf("CREATE: %v", err)
		}
		if _, err := db.Exec("INSERT INTO sweep VALUES (1, 'one')"); err != nil {
			t.Fatalf("INSERT: %v", err)
		}
		r, err := db.Exec("SELECT v FROM sweep WHERE id = 1")
		if err != nil || len(r.Rows) != 1 || r.Rows[0][0].Str != "one" {
			t.Fatalf("SELECT = %v, %v", r, err)
		}
		wantPlan := "full-scan"
		if db.Has("Optimizer") && db.Has("BPlusTree") {
			// A single pk-equality is one index Get on every product
			// that can choose access paths.
			wantPlan = "point-lookup"
		}
		if r.Plan != wantPlan {
			t.Fatalf("plan = %s, want %s", r.Plan, wantPlan)
		}
		if _, err := db.Exec("SELECT COUNT(*) FROM sweep"); err != nil {
			t.Fatalf("COUNT: %v", err)
		}
	} else if _, err := db.Exec("SELECT 1"); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Exec without feature = %v", err)
	}

	// NFPs are always reportable and internally consistent.
	rom, err := db.ROM()
	if err != nil || rom <= 0 {
		t.Fatalf("ROM = %d, %v", rom, err)
	}
	if db.RAM() <= 0 {
		t.Fatalf("RAM = %d", db.RAM())
	}
}

// TestSweepROMOrdering checks the NFP invariant across the sweep: a
// product whose feature set is a superset of another's never has
// smaller ROM.
func TestSweepROMOrdering(t *testing.T) {
	products := randomProducts(t, 25, 7)
	type info struct {
		set map[string]bool
		rom int
	}
	var infos []info
	for _, cfg := range products {
		db, err := OpenConfig(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rom, err := db.ROM()
		db.Close()
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, f := range cfg.SelectedNames() {
			set[f] = true
		}
		infos = append(infos, info{set, rom})
	}
	subset := func(a, b map[string]bool) bool {
		for f := range a {
			if !b[f] {
				return false
			}
		}
		return true
	}
	for i := range infos {
		for j := range infos {
			if i == j {
				continue
			}
			if subset(infos[i].set, infos[j].set) && infos[i].rom > infos[j].rom {
				t.Fatalf("subset product has larger ROM: %d > %d", infos[i].rom, infos[j].rom)
			}
		}
	}
}
