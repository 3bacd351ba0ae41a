// Replication: log-shipping replication with safe-snapshot markers
// (§7.2). A master streams commit records to a standby; the standby runs
// serializable read-only transactions only at safe-snapshot points in the
// stream, and snapshot-isolation reads anywhere.
package main

import (
	"fmt"
	"log"

	"pgssi"
	"pgssi/internal/wal"
)

func main() {
	// The master's write-ahead log, here in memory: the stream the
	// standby subscribes to, schema records included.
	masterLog := wal.NewLog()
	master := pgssi.Open(pgssi.Config{})
	if err := master.AttachWAL(masterLog); err != nil {
		log.Fatal(err)
	}
	if err := master.CreateTable("kv"); err != nil {
		log.Fatal(err)
	}

	replica := pgssi.NewReplica(masterLog)
	defer replica.Close()

	// Commit a few transactions on the master. With no concurrency,
	// each commit is followed by a safe-snapshot marker.
	for i := 0; i < 5; i++ {
		err := master.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
			k := fmt.Sprintf("key%d", i)
			return tx.Insert("kv", k, []byte(fmt.Sprintf("value%d", i)))
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Wait for the standby to apply everything the master logged (the
	// schema record, 5 commits, and their markers).
	if err := replica.WaitApplied(int(masterLog.Stats().Appends)); err != nil {
		log.Fatal(err)
	}
	applied, err := replica.AppliedRecords()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("replica applied", applied, "WAL records")

	// A serializable read-only transaction on the standby: allowed
	// because the stream position is a safe snapshot.
	rtx, err := replica.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	err = rtx.Scan("kv", "", "", func(k string, v []byte) bool {
		fmt.Printf("  standby read %s = %s\n", k, v)
		n++
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := rtx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("standby serializable read-only txn saw", n, "rows on a safe snapshot")
}
