// Package footprint is the binary-size model of the reproduction: the
// ROM cost of a feature is the measured size of the Go source that
// implements it, attributed at file or function granularity, and the
// ROM cost of a product is the sum over its composed features.
//
// This substitutes for the paper's compiled-binary sizes (Fig. 1a): Go
// cannot link per-feature object files, but source-derived costs
// preserve exactly what the figure demonstrates — the ordering and
// relative deltas between configurations. See DESIGN.md §4.
//
// Two inclusion models mirror the implementation technologies:
//
//   - Fine (FeatureC++): each selected feature contributes its own
//     cost and nothing else.
//   - Coarse (original C): code can only be excluded at the granularity
//     of the historical compile flags. Features entangled with the core
//     are always included, flag units are all-or-nothing, and each
//     included unit pays a fixed glue overhead for the preprocessor
//     scattering — which is why the C bars of Fig. 1a sit slightly
//     above the FeatureC++ bars for the same configuration.
package footprint

// SourceSpec names the source code implementing one feature: a file,
// and optionally the subset of functions within it ("Func" for plain
// functions, "Recv.Func" for methods). An empty Funcs list means the
// whole file.
type SourceSpec struct {
	File  string
	Funcs []string
}

// file is shorthand for a whole-file spec.
func file(path string) SourceSpec { return SourceSpec{File: path} }

// funcs is shorthand for a function-subset spec.
func funcs(path string, names ...string) SourceSpec {
	return SourceSpec{File: path, Funcs: names}
}

// FAMECore lists the code every FAME-DBMS product contains (the root
// feature): page storage, the OS abstraction surface, and the access
// layer skeleton.
func FAMECore() []SourceSpec {
	return []SourceSpec{
		file("internal/storage/pagefile.go"),
		file("internal/storage/slotted.go"),
		file("internal/storage/heap.go"),
		// The error taxonomy and the retry/degraded-mode latch are part of
		// every product: even the tiniest node wants typed page errors and
		// the read-only fallback when its flash dies. Only the checksum
		// trailer is a selectable feature.
		file("internal/storage/errors.go"),
		file("internal/storage/retry.go"),
		funcs("internal/osal/osal.go",
			"Stats.addRead", "Stats.addWrite", "Stats.addSync", "Stats.Snapshot",
			"MemFS.Open", "MemFS.Create", "MemFS.Remove", "MemFS.Rename",
			"MemFS.List", "MemFS.Stats", "NewMemFS",
			"memFile.ReadAt", "memFile.WriteAt", "memFile.Size",
			"memFile.Truncate", "memFile.Sync", "memFile.Close"),
		funcs("internal/access/access.go", "New", "Store.Index", "Store.IndexSeam",
			"Store.Ops", "Store.Len"),
		// The span seam every layer above the index holds it through.
		funcs("internal/index/index.go", "SeamOf", "Seam.InsertIn", "Seam.GetIn",
			"Seam.DeleteIn", "Seam.UpdateIn", "Seam.ScanIn", "Seam.Check"),
	}
}

// FAMESources maps each concrete FAME-DBMS feature to its sources.
func FAMESources() map[string][]SourceSpec {
	return map[string][]SourceSpec{
		// OS abstraction alternatives: Linux carries the real
		// directory-backed filesystem; Win32 and NutOS are simulated
		// targets whose cost is the platform glue.
		"Linux": {funcs("internal/osal/osal.go",
			"NewDirFS", "DirFS.path", "DirFS.Open", "DirFS.Create",
			"DirFS.Remove", "DirFS.Rename", "DirFS.List", "DirFS.Stats",
			"osFile.ReadAt", "osFile.WriteAt", "osFile.Size",
			"osFile.Truncate", "osFile.Sync", "osFile.Close")},
		"Win32": {funcs("internal/osal/osal.go", "PlatformByName")},
		"NutOS": {funcs("internal/osal/osal.go", "PlatformByName")},

		"DataTypes": {file("internal/types/types.go")},

		// The B+-tree: base structure plus the fine-grained operation
		// subfeatures of Fig. 2.
		"BPlusTree": {
			file("internal/btree/node.go"),
			funcs("internal/btree/btree.go",
				"Create", "Open", "OpenIn", "Tree.writeMeta", "Tree.Len", "Tree.MetaPage",
				"Tree.readNode", "Tree.writeNode", "maxEntrySize",
				"Tree.pooledNode", "Tree.release", "Tree.makeRoom",
				"Tree.Insert", "Tree.InsertIn", "Tree.Check", "Tree.write", "Tree.insertAt", "Tree.insertLeaf",
				"Tree.leafEntries", "Tree.innerEntries", "splitPoint",
				"leafCellSize2", "innerCellSize2"),
			funcs("internal/index/index.go",
				"CreateBTree", "OpenBTree", "OpenBTreeIn", "BTree.Name", "BTree.Insert",
				"BTree.InsertIn", "BTree.Check", "BTree.Len", "BTree.Tree", "AllBTreeOps",
				"BTree.Drop"),
		},
		"BTreeSearch": {
			funcs("internal/btree/btree.go",
				"Tree.Get", "Tree.GetIn", "Tree.descendFrom",
				"Tree.Scan", "Tree.ScanIn", "Tree.leftmostLeaf"),
			funcs("internal/index/index.go", "BTree.Get", "BTree.GetIn",
				"BTree.Scan", "BTree.ScanIn"),
		},
		"BTreeUpdate": {
			funcs("internal/btree/btree.go", "Tree.Update", "Tree.UpdateIn"),
			funcs("internal/index/index.go", "BTree.Update", "BTree.UpdateIn"),
		},
		"BTreeRemove": {
			funcs("internal/btree/btree.go", "Tree.Delete", "Tree.DeleteIn", "Tree.deleteAt"),
			funcs("internal/index/index.go", "BTree.Delete", "BTree.DeleteIn"),
		},

		// The Checksums feature: CRC32 page trailers sealed on write,
		// verified on read, plus the scrub pass. Lives entirely in one
		// file, so a product without Checksums carries none of it.
		"Checksums": {file("internal/storage/checksum.go")},

		"ListIndex": {funcs("internal/index/index.go",
			"CreateList", "OpenList", "encodeEntry", "decodeEntry",
			"List.find", "List.Name", "List.Insert", "List.Check", "List.Get",
			"List.Delete", "List.Update", "List.Scan", "List.Len", "List.Drop")},

		// Buffer manager and its alternatives. There is one pool: every
		// product's cache is a Manager over the shard engine in
		// sharded.go, with one shard unless ShardedBuffer is selected,
		// which owns only the striping — the striped constructor and
		// the page-to-shard hash.
		"BufferManager": {
			funcs("internal/buffer/buffer.go",
				"NewManager", "Manager.ShardCount",
				"Manager.PageSize", "Manager.PolicyName", "Manager.Stats",
				"Manager.Resident", "Manager.Alloc", "Manager.Free",
				"Manager.ReadPage", "Manager.ReadPageIn", "Manager.WritePage",
				"Manager.WritePageIn", "Manager.access",
				"Manager.Sync", "Manager.Close", "Manager.flush"),
			funcs("internal/buffer/sharded.go",
				"newShard", "shard.resident", "shard.access",
				"shard.fault", "shard.publish", "shard.abandonFault",
				"shard.drop", "shard.flushFuzzy"),
		},
		"ShardedBuffer": {funcs("internal/buffer/sharded.go",
			"NewSharded", "Manager.shardFor")},
		"LRU": {funcs("internal/buffer/buffer.go",
			"NewLRU", "LRU.Name", "LRU.Admitted", "LRU.Touched", "LRU.Removed",
			"LRU.Victim", "LRU.pushFront", "LRU.unlink")},
		"LFU": {funcs("internal/buffer/buffer.go",
			"NewLFU", "LFU.Name", "LFU.Admitted", "LFU.Touched", "LFU.Removed",
			"LFU.Victim")},
		"DynamicAlloc": {funcs("internal/buffer/buffer.go",
			"NewDynamicAllocator", "DynamicAllocator.Name",
			"DynamicAllocator.AllocFrame", "DynamicAllocator.FreeFrame")},
		"StaticAlloc": {funcs("internal/buffer/buffer.go",
			"NewStaticAllocator", "StaticAllocator.Name",
			"StaticAllocator.AllocFrame", "StaticAllocator.FreeFrame")},

		// The four access operations (Fig. 2's put/get/remove/update).
		"Put": {funcs("internal/access/access.go", "Store.Put", "Store.PutIn")},
		"Get": {funcs("internal/access/access.go", "Store.Get", "Store.GetIn",
			"Store.Scan", "Store.ScanIn")},
		"Remove": {funcs("internal/access/access.go", "Store.Remove", "Store.RemoveIn")},
		"Update": {funcs("internal/access/access.go", "Store.Update", "Store.UpdateIn")},

		// Transactions: the log with its one frame decoder and walker, the
		// one commit body, the one redo and the one auto-commit (Do) under
		// the record API. The CommitProtocol
		// alternatives are only the batch limit they hand the commit
		// body; the optional Locking feature adds the group-commit
		// pipeline that stages batches for that body, and Recovery the
		// replay hook at open.
		"Transaction": {
			file("internal/txn/wal.go"),
			funcs("internal/txn/txn.go",
				"Open", "OpenTrees", "Manager.seeTxn", "Manager.redo", "Manager.apply",
				"Manager.storeOf", "Manager.Read",
				"Manager.Do", "Manager.DoAsync", "Manager.Put", "Manager.Update", "Manager.Remove",
				"Manager.Get", "Manager.Scan", "Manager.Len", "Manager.Begin",
				"Txn.lookupWriteSet", "Txn.record", "Txn.Tree",
				"Txn.Get", "Txn.writable", "Txn.exists", "Txn.Put", "Txn.Update", "Txn.Remove",
				"TreeTxn.Get", "TreeTxn.Put", "TreeTxn.Update", "TreeTxn.Remove",
				"Txn.encodeWriteSet", "Manager.applyLocked",
				"Txn.Commit", "Txn.CommitAsync", "resolved", "Staged.Ready", "Staged.Wait",
				"Manager.commitBatch", "Txn.Abort", "Manager.Flush",
				"Manager.Checkpoint", "Manager.LogSyncs", "Manager.LogSize",
				"Manager.quiesce", "Manager.Close",
				"nullLocker.Lock", "nullLocker.Unlock", "nullLocker.RLock",
				"nullLocker.RUnlock"),
			// The shared read surface of snapshot.go: every transactional
			// product resolves visibility and merges the write-set overlay
			// through these, with or without a pinned version underneath.
			funcs("internal/txn/snapshot.go",
				"notFound", "Txn.visible", "Txn.Len", "Txn.Scan",
				"Txn.overlayRange"),
		},
		"ForceCommit": {funcs("internal/txn/txn.go", "ForceCommit")},
		"GroupCommit": {funcs("internal/txn/txn.go", "GroupCommit")},
		"Locking":     {file("internal/txn/groupcommit.go")},
		// Recovery restores the checkpoint image at open and refreshes it
		// at every checkpoint, both by file copy.
		"Recovery": {funcs("internal/txn/txn.go", "Manager.recover"),
			funcs("internal/osal/osal.go", "CopyFile")},

		// The query stack. There is one SQL executor — statements compile
		// to closure chains (compile.go) that engine.go latches, traces
		// and runs — and every SQL product carries it.
		"SQLEngine": {
			file("internal/sql/lexer.go"),
			file("internal/sql/ast.go"),
			file("internal/sql/parser.go"),
			file("internal/sql/compile.go"),
			funcs("internal/sql/engine.go",
				"Create", "Open", "initEngine", "Engine.Meta", "Engine.SetJournal",
				"Engine.read", "Engine.write", "Engine.Exec", "Engine.runCompiled", "Engine.execute",
				"catalogKey", "encodeTableMeta", "decodeTableMeta",
				"direct.has", "direct.put", "direct.update", "direct.remove", "direct.catalog",
				"txWriter.has", "txWriter.put", "txWriter.update", "txWriter.remove",
				"txWriter.catalog", "Engine.applyCatalog", "Engine.dropTree",
				"Engine.register", "Engine.tableByTree", "Engine.Trees",
				"trees.Tree", "trees.IDs", "trees.Apply", "Engine.openTable", "Engine.Tables",
				"Engine.execCreate", "Engine.execDrop", "coerce", "table.rowKey",
				"resolveInsert", "insertRow", "scanWhere",
				"resolveProjection", "projectRow", "sortRows",
				"resolveAggregates", "execAggregates", "aggRow",
				"applyUpdate", "BTreeFactory", "ListFactory"),
		},
		// The Optimizer feature: the bounded-range and point-lookup access
		// paths. Without it every plan's access path is the full scan.
		"Optimizer": {file("internal/sql/optimizer.go")},

		// The CompiledQueries feature: plans that are kept — the
		// prepared-statement surface and the shape-keyed plan cache. Only
		// CompiledQueries maps these two files and it maps nothing of the
		// executor (CI guards both), so a product derived without it
		// compiles a plan per statement and carries neither Prepare nor
		// the cache.
		"CompiledQueries": {
			file("internal/sql/prepare.go"),
			file("internal/sql/cache.go"),
		},

		// The QueryStats feature: EXPLAIN/ANALYZE plan rendering and the
		// per-shape profile registry with the slow-query ring. Only
		// QueryStats maps these two files (CI guards that) — Statistics
		// alone ships without per-statement observability.
		"QueryStats": {
			file("internal/sql/explain.go"),
			file("internal/stats/querystats.go"),
		},

		// The Statistics feature: the cross-cutting metrics registry, the
		// metrics table that declares every exported metric once, and the
		// histograms and encoders.
		"Statistics": {
			file("internal/stats/stats.go"),
			file("internal/stats/table.go"),
			file("internal/stats/histogram.go"),
			file("internal/stats/encode.go"),
			file("internal/stats/delta.go"),
		},

		// The Tracing feature: the span recorder with its ring buffer,
		// slow-op log and exporters. No other feature maps to these files
		// (CI guards that), so a product without Tracing carries none of
		// this code.
		"Tracing": {
			file("internal/trace/trace.go"),
			file("internal/trace/ring.go"),
			file("internal/trace/slow.go"),
			file("internal/trace/export.go"),
		},

		// The MVCC feature: copy-on-write shadowing, the version table
		// with epoch reclamation, and the snapshot transaction surface.
		// Only MVCC maps the cow/version files (CI guards that), so a
		// product derived without it shadows no pages, keeps no version
		// list, and exposes no snapshot API.
		"MVCC": {
			file("internal/btree/cow.go"),
			file("internal/btree/versions.go"),
			funcs("internal/txn/snapshot.go",
				"Manager.BeginSnapshot", "Txn.SnapshotSeq", "Txn.releaseSnap",
				"Manager.pinVersion", "Manager.installVersion"),
		},

		// The Monitor feature: the windowed sampler, the threshold
		// watchdog with its bounded event log, and the HTTP telemetry
		// endpoint. Only Monitor maps this package (CI guards that), so
		// a product derived without it carries no sampler goroutine, no
		// rule engine, and no HTTP server.
		"Monitor": {
			file("internal/monitor/monitor.go"),
			file("internal/monitor/watchdog.go"),
			file("internal/monitor/http.go"),
		},

		// The Replication feature: the WAL ship layer (range reads,
		// prefix CRC handshakes, the chunk applier and snapshot
		// install) and the frame fan-out with its convergence check.
		// Only Replication maps these files (CI guards that), so a
		// product derived without it ships nothing and carries no
		// applier.
		"Replication": {
			file("internal/txn/ship.go"),
			file("internal/repl/frames.go"),
		},

		// The Server feature: the wire protocol, the TCP listener with
		// its client and replication sessions, the client library, and
		// the replica client. Only Server maps this package (CI guards
		// that), so a product derived without it opens no sockets.
		"Server": {
			file("internal/server/proto.go"),
			file("internal/server/server.go"),
			file("internal/server/client.go"),
			file("internal/server/replica.go"),
		},
	}
}

// BDBCore lists the code every case-study product contains: the storage
// stack, the cache, the environment skeleton and the catalog.
func BDBCore() []SourceSpec {
	return []SourceSpec{
		file("internal/storage/pagefile.go"),
		file("internal/storage/slotted.go"),
		file("internal/storage/heap.go"),
		funcs("internal/osal/osal.go",
			"NewMemFS", "MemFS.Open", "MemFS.Create", "MemFS.Remove",
			"MemFS.Rename", "MemFS.List", "MemFS.Stats",
			"memFile.ReadAt", "memFile.WriteAt", "memFile.Size",
			"memFile.Truncate", "memFile.Sync", "memFile.Close"),
		funcs("internal/buffer/buffer.go",
			"NewManager", "Manager.PageSize", "Manager.Stats",
			"Manager.Resident", "Manager.Alloc", "Manager.Free", "Manager.ReadPage",
			"Manager.ReadPageIn", "Manager.WritePage", "Manager.WritePageIn",
			"Manager.access", "Manager.Sync", "Manager.Close", "Manager.flush",
			"NewLRU", "LRU.Name", "LRU.Admitted", "LRU.Touched", "LRU.Removed",
			"LRU.Victim", "LRU.pushFront", "LRU.unlink",
			"NewDynamicAllocator", "DynamicAllocator.Name",
			"DynamicAllocator.AllocFrame", "DynamicAllocator.FreeFrame"),
		// The cache is NewManager's one-shard pool; the model has no
		// ShardedBuffer, so the constructor and page-to-shard hash it
		// runs are core.
		funcs("internal/buffer/sharded.go",
			"newShard", "shard.resident", "shard.access",
			"shard.fault", "shard.publish", "shard.abandonFault",
			"shard.drop", "shard.flushFuzzy", "NewSharded", "Manager.shardFor"),
		funcs("internal/index/index.go",
			"CreateList", "OpenList", "encodeEntry", "decodeEntry",
			"List.find", "List.Insert", "List.Check", "List.Get", "List.Scan", "List.Len"),
		funcs("internal/bdb/engine.go",
			"Open", "Env.has", "Env.CreateDB", "Env.OpenDB",
			"Env.lookupDBLocked", "Env.openDBLocked", "Env.Databases",
			"catalogVal", "DB.Name", "DB.Method", "DB.tree", "DB.buildPipelines",
			"DB.applyPut", "DB.applyGet",
			"DB.applyDel", "DB.kvOnly", "DB.Put", "DB.Get", "DB.Delete",
			"DB.Len", "featureErr"),
		funcs("internal/bdb/features.go", "Env.Sync", "Env.Close"),
	}
}

// BDBSources maps each of the 24 optional case-study features to its
// sources.
func BDBSources() map[string][]SourceSpec {
	return map[string][]SourceSpec{
		"Btree": {
			file("internal/btree/node.go"),
			file("internal/btree/btree.go"),
			funcs("internal/index/index.go",
				"CreateBTree", "OpenBTree", "OpenBTreeIn", "BTree.Name", "BTree.Insert",
				"BTree.InsertIn", "BTree.Check", "BTree.Get", "BTree.GetIn", "BTree.Delete",
				"BTree.DeleteIn", "BTree.Update", "BTree.UpdateIn", "BTree.Scan",
				"BTree.ScanIn", "BTree.Len", "BTree.Tree", "AllBTreeOps"),
		},
		"Hash":  {file("internal/bdb/hash.go")},
		"Queue": {file("internal/bdb/queue.go")},
		"Recno": {funcs("internal/bdb/engine.go", "DB.Append", "DB.GetRecno", "recnoKey")},

		"Locking": {
			funcs("internal/txn/txn.go",
				"nullLocker.Lock", "nullLocker.Unlock", "nullLocker.RLock",
				"nullLocker.RUnlock"),
			file("internal/txn/groupcommit.go"),
		},
		"Logging": {
			file("internal/txn/wal.go"),
			funcs("internal/txn/txn.go", "Open", "OpenTrees", "Manager.seeTxn", "Manager.redo",
				"Manager.apply", "Manager.storeOf", "Manager.Do", "Manager.DoAsync", "Manager.Begin",
				"Txn.Tree", "TreeTxn.Put", "TreeTxn.Remove", "Txn.Commit", "Txn.CommitAsync",
				"resolved", "Staged.Wait", "Manager.commitBatch",
				"Txn.Abort", "Txn.lookupWriteSet", "Txn.record", "Txn.writable", "Txn.exists",
				"Txn.encodeWriteSet", "Manager.applyLocked", "Manager.quiesce",
				"Manager.Flush", "Manager.LogSyncs", "Manager.LogSize",
				"Manager.Close"),
			funcs("internal/bdb/engine.go", "Env.dbByTree", "dbTrees.Tree", "dbTrees.IDs",
				"dbTrees.Apply", "unjournaled.Insert", "unjournaled.Delete"),
		},
		"Transactions": {
			funcs("internal/txn/txn.go", "TreeTxn.Get"),
			funcs("internal/bdb/features.go", "Env.Begin", "Tx.Put", "Tx.Get",
				"Tx.Delete", "Tx.Commit", "Tx.Abort"),
		},
		"Recovery": {funcs("internal/txn/txn.go", "Manager.recover")},
		"Checkpoint": {funcs("internal/txn/txn.go", "Manager.Checkpoint"),
			funcs("internal/bdb/features.go", "Env.Checkpoint")},

		"Crypto": {file("internal/bdb/crypto.go")},
		"Replication": {
			funcs("internal/bdb/features.go", "Env.AttachReplica", "replicaRouter.apply"),
		},
		"Backup": {funcs("internal/bdb/features.go", "Env.Backup"),
			funcs("internal/osal/osal.go", "CopyFile")},
		"Sequence": {funcs("internal/bdb/features.go", "Env.Sequence", "Sequence.Next")},
		"Events":   {funcs("internal/bdb/engine.go", "Env.emit")},
		"CacheTuning": {funcs("internal/buffer/buffer.go",
			"NewLFU", "LFU.Name", "LFU.Admitted", "LFU.Touched", "LFU.Removed",
			"LFU.Victim")},

		"Cursors": {funcs("internal/bdb/features.go",
			"DB.Cursor", "Cursor.First", "Cursor.Next", "Cursor.Prev",
			"Cursor.Seek", "Cursor.current")},
		"Join":    {funcs("internal/bdb/features.go", "Env.Join")},
		"BulkOps": {funcs("internal/bdb/features.go", "DB.BulkPut", "DB.BulkGet")},

		"Statistics": {funcs("internal/bdb/engine.go", "Env.Stats")},
		"Verify": {
			funcs("internal/btree/btree.go", "Tree.Verify"),
			funcs("internal/btree/node.go", "node.validate"),
			funcs("internal/bdb/hash.go", "HashIndex.VerifyChains"),
			funcs("internal/bdb/features.go", "DB.Verify", "Queue.verify"),
		},
		"Compact": {
			funcs("internal/btree/btree.go", "Tree.Compact", "Tree.allPages"),
			funcs("internal/bdb/features.go", "DB.Compact"),
		},
		"Truncate":      {funcs("internal/bdb/features.go", "DB.Truncate")},
		"Diagnostic":    {funcs("internal/bdb/engine.go", "DB.buildPipelines")},
		"ErrorMessages": {funcs("internal/bdb/engine.go", "Env.Strerror")},
	}
}

// BDBCoarseUnits describes the original C code base's compile-flag
// granularity: each unit is all-or-nothing, and the entangled unit is
// always linked. This is what makes configurations 7 and 8 of Fig. 1
// inexpressible in C.
type CoarseUnit struct {
	// Name of the historical compile flag.
	Name string
	// Features removed/added together by the flag.
	Features []string
}

// BDBCoarseUnits returns the flag units of the C build.
func BDBCoarseUnits() []CoarseUnit {
	return []CoarseUnit{
		{"HAVE_BTREE", []string{"Btree"}},
		{"HAVE_HASH", []string{"Hash"}},
		{"HAVE_QUEUE", []string{"Queue"}},
		{"HAVE_RECNO", []string{"Recno"}},
		{"HAVE_CRYPTO", []string{"Crypto"}},
		{"HAVE_REPLICATION", []string{"Replication"}},
		// One flag governs the whole transactional subsystem.
		{"HAVE_TXN", []string{"Transactions", "Logging", "Locking", "Recovery", "Checkpoint"}},
		{"HAVE_SEQUENCE", []string{"Sequence"}},
		{"HAVE_BACKUP", []string{"Backup"}},
		{"HAVE_COMPACT", []string{"Compact"}},
		{"HAVE_CACHETUNE", []string{"CacheTuning"}},
		{"HAVE_DIAGNOSTIC", []string{"Diagnostic"}},
		{"HAVE_JOIN", []string{"Join", "BulkOps"}},
	}
}

// BDBEntangledFeatures are the features the C code base cannot remove:
// they are woven through the core ("remaining functionality was heavily
// entangled", Sec. 2.3) and were only separated by the FeatureC++
// refactoring.
func BDBEntangledFeatures() []string {
	return []string{"Cursors", "Statistics", "Truncate", "Verify", "Events", "ErrorMessages"}
}

// CoarseGlueBytes is the per-included-unit overhead of the preprocessor
// scattering in the C build — the reason the C bars sit slightly above
// the FeatureC++ bars for identical configurations in Fig. 1a.
const CoarseGlueBytes = 640
