package pgssi

import (
	"fmt"
	"strings"
)

// Hooks are the engine's test-only seams (testHooks in db.go): the §3.3.1
// ablation, the trace function and the WAL filesystem override.
type Hooks = testHooks

// OpenWithHooks is Open with test-only seams set.
func OpenWithHooks(cfg Config, h Hooks) *DB { return open(cfg, h) }

// OpenDirWithHooks is OpenDir with test-only seams set.
func OpenDirWithHooks(dir string, cfg Config, h Hooks) (*DB, error) { return openDir(dir, cfg, h) }

// DescribeReadState renders what a transaction reading keys of table is
// up against right now, for harnesses in package pgssi_test that catch a
// reader seeing a state it should not: the commit sequence and the trim
// horizon, every active transaction with the CSN it pins the horizon at
// (its begin-time CSN, at or below its snapshot's), and every
// version of each row (storage.Table.DescribeRow).
func DescribeReadState(db *DB, table string, keys []string) string {
	ti, err := db.table(table)
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "commit seq %d, trim horizon %d\n", db.mvcc.CurrentSeq(), db.mvcc.Horizon())
	for xid, seq := range db.mvcc.ActivePins() {
		fmt.Fprintf(&b, "active xid %d: pins CSN %d\n", xid, seq)
	}
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s\n", ti.heap.DescribeRow(k, db.mvcc))
	}
	return b.String()
}
