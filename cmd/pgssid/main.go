// Command pgssid serves a pgssi database over TCP using the
// length-prefixed wire protocol (docs/protocol.md): one session per
// connection, read/write deadlines, a connection limit, and graceful
// drain on SIGTERM/SIGINT (stop accepting, refuse new Begins, let
// in-flight transactions finish or abort after -drain-timeout, then
// close and quiesce the engine).
//
// With -replicate-from it runs as a read-only replica instead: it
// streams the named primary's WAL (reconnecting and resuming from its
// applied position on any interruption), applies it locally, and serves
// the same protocol restricted to read-only transactions — serializable
// ones run on safe snapshots only (docs/wal.md, "Replication").
//
// Example:
//
//	pgssid -addr :6432 -tables kv -preload 1000000
//	pgssid -addr :6433 -replicate-from 127.0.0.1:6432
//	pgload kv -addr :6433 -writes 0 -iso repeatableread -rate 3000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pgssi"
	"pgssi/internal/server"
	"pgssi/internal/wal"
	"pgssi/internal/wire"
	"pgssi/internal/workload"
)

func main() {
	var (
		addr         = flag.String("addr", ":6432", "listen address")
		tables       = flag.String("tables", "kv", "comma-separated tables to create at startup")
		preload      = flag.Int("preload", 0, "rows to preload into the first table (keys k00000000..)")
		valueSize    = flag.Int("valuesize", 16, "preloaded value size in bytes")
		maxConns     = flag.Int("maxconns", 1024, "connection limit (0 = unlimited)")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "per-request read deadline")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-response write deadline")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain bound for in-flight transactions")
		partitions   = flag.Int("partitions", 0, "SIREAD lock table partitions (0 = default)")
		dataDir      = flag.String("data", "", "data directory for the durable WAL (empty = in-memory, nothing survives restart)")
		fsyncMode    = flag.String("fsync", "batch", "fsync mode with -data: batch (sync before acknowledging; a flush waits for other open transactions to commit into it, up to a 200µs cap, and not at all when there are none), always (never waits for them), or off (never syncs)")
		ckptEvery    = flag.Int64("checkpoint-every", 0, "checkpoint and GC the WAL every this many bytes of log growth, bounding the log on disk or, without -data, in memory (0 = never)")
		replFrom     = flag.String("replicate-from", "", "primary's address: run as a read-only replica of it (schema and data arrive via the stream)")
	)
	flag.Parse()
	log.SetPrefix("pgssid: ")
	log.SetFlags(0)

	srvCfg := server.Config{
		MaxConns:     *maxConns,
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTimeout,
		DrainTimeout: *drainTimeout,
		Logf:         log.Printf,
	}
	if *replFrom != "" {
		if *dataDir != "" || *preload > 0 {
			log.Fatal("-replicate-from is incompatible with -data and -preload: a replica's state comes from the stream")
		}
		rep := pgssi.NewReplica(&wire.ReplicaSource{Addr: *replFrom, DialTimeout: 10 * time.Second, Logf: log.Printf})
		srv := server.NewReplicaServer(rep, srvCfg)
		srv.DrainOnSignal()
		log.Printf("replica of %s listening on %s", *replFrom, *addr)
		if err := srv.ListenAndServe(*addr); err != nil && err != server.ErrServerClosed {
			log.Fatal(err)
		}
		rep.Close()
		applied, aerr := rep.AppliedRecords()
		if aerr != nil {
			log.Printf("replica halted: %v", aerr)
			os.Exit(1)
		}
		log.Printf("drained at %d applied records (seq %d, safe %d), bye", applied, rep.AppliedSeq(), rep.SafeSeq())
		os.Exit(0)
	}

	cfg := pgssi.Config{Partitions: *partitions, CheckpointEvery: *ckptEvery}
	var db *pgssi.DB
	if *dataDir != "" {
		mode, err := wal.ParseFsyncMode(*fsyncMode)
		if err != nil {
			log.Fatal(err)
		}
		cfg.FsyncMode = mode
		start := time.Now()
		db, err = pgssi.OpenDir(*dataDir, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if n := db.WALRecoveredRecords(); n > 0 {
			log.Printf("recovered %d WAL records from %s in %s (fsync=%s)", n, *dataDir, time.Since(start).Round(time.Millisecond), mode)
		} else {
			log.Printf("initialized %s (fsync=%s)", *dataDir, mode)
		}
	} else {
		// Replication streams the WAL, so an in-memory primary has one
		// too, in memory; -checkpoint-every bounds it.
		db = pgssi.Open(cfg)
		if err := db.AttachWAL(wal.NewLog()); err != nil {
			log.Fatal(err)
		}
	}
	names := strings.Split(*tables, ",")
	for _, t := range names {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		if err := db.CreateTable(t); err != nil {
			// After recovery the table is already there; that is not an
			// error on restart.
			if *dataDir != "" && strings.Contains(err.Error(), "already exists") {
				continue
			}
			log.Fatal(err)
		}
	}
	// A recovered database already holds its data; preloading again would
	// overwrite it (and double startup time).
	if *preload > 0 && db.WALRecoveredRecords() > 0 {
		log.Printf("skipping preload: recovered data present")
		*preload = 0
	}
	if *preload > 0 {
		start := time.Now()
		if err := preloadTable(db, strings.TrimSpace(names[0]), *preload, *valueSize); err != nil {
			log.Fatal(err)
		}
		log.Printf("preloaded %d rows into %q in %s", *preload, names[0], time.Since(start).Round(time.Millisecond))
	}

	srv := server.New(db, srvCfg)
	srv.DrainOnSignal()
	log.Printf("listening on %s (tables=%s preload=%d maxconns=%d)", *addr, *tables, *preload, *maxConns)
	err := srv.ListenAndServe(*addr)
	if err != nil && err != server.ErrServerClosed {
		log.Fatal(err)
	}
	db.Close()
	log.Printf("drained, bye")
	os.Exit(0)
}

// preloadTable inserts rows in chunked ReadCommitted transactions (no
// SSI bookkeeping needed for a single-writer bulk load).
func preloadTable(db *pgssi.DB, table string, rows, valueSize int) error {
	value := []byte(strings.Repeat("v", max(valueSize, 1)))
	const chunk = 5000
	for lo := 0; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.ReadCommitted}, func(tx *pgssi.Tx) error {
			for i := lo; i < hi; i++ {
				if err := tx.Insert(table, workload.LoadKey(i), value); err != nil {
					return fmt.Errorf("preload %s: %w", workload.LoadKey(i), err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
