// Code generated by cmd/fame-footprint. DO NOT EDIT.
// Embedded fallback for runs outside the source tree.

package footprint

import "fmt"

func loadDefault(model string) (*Table, error) {
	switch model {
	case "FAME-DBMS":
		return &Table{Model: "FAME-DBMS", Core: 43748, Features: map[string]int{
			"BPlusTree":       20428,
			"BTreeRemove":     1718,
			"BTreeSearch":     2850,
			"BTreeUpdate":     903,
			"BufferManager":   9421,
			"Checksums":       7176,
			"CompiledQueries": 10725,
			"DataTypes":       11376,
			"DynamicAlloc":    316,
			"ForceCommit":     35,
			"Get":             963,
			"GroupCommit":     80,
			"LFU":             726,
			"LRU":             960,
			"Linux":           2231,
			"ListIndex":       2902,
			"Locking":         6664,
			"MVCC":            13896,
			"Monitor":         27135,
			"NutOS":           254,
			"Optimizer":       4233,
			"Put":             423,
			"QueryStats":      18697,
			"Recovery":        787,
			"Remove":          454,
			"Replication":     21514,
			"SQLEngine":       61492,
			"Server":          37026,
			"ShardedBuffer":   917,
			"StaticAlloc":     778,
			"Statistics":      37625,
			"Tracing":         20189,
			"Transaction":     28352,
			"Update":          472,
			"Win32":           254,
		}}, nil
	case "BerkeleyDB":
		return &Table{Model: "BerkeleyDB", Core: 55405, Features: map[string]int{
			"Backup":        1216,
			"Btree":         40023,
			"BulkOps":       722,
			"CacheTuning":   726,
			"Checkpoint":    691,
			"Compact":       2031,
			"Crypto":        2316,
			"Cursors":       1023,
			"Diagnostic":    2526,
			"ErrorMessages": 171,
			"Events":        101,
			"Hash":          9002,
			"Join":          774,
			"Locking":       6784,
			"Logging":       24826,
			"Queue":         5149,
			"Recno":         913,
			"Recovery":      110,
			"Replication":   594,
			"Sequence":      649,
			"Statistics":    352,
			"Transactions":  981,
			"Truncate":      687,
			"Verify":        5482,
		}}, nil
	default:
		return nil, fmt.Errorf("footprint: unknown model %q", model)
	}
}
