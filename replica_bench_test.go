package pgssi_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"pgssi"
	"pgssi/internal/router"
	"pgssi/internal/wal"
)

// BenchmarkReplicaFleetRead measures routed serializable read-only
// throughput against a primary plus N streaming replicas, the read-
// scaling claim of the replication tier: replicas=0 is the single-node
// baseline (every read on the primary), replicas=1/3 route reads to
// safe snapshots on the fleet. A light write trickle keeps the WAL
// moving so markers and lag are real, not a frozen snapshot.
//
// On a single-CPU runner the fleet shares one core with the primary, so
// wall-clock scaling understates what distinct machines would show; the
// routing split (reported as replica-share) is the portion of reads the
// primary no longer serves.
func BenchmarkReplicaFleetRead(b *testing.B) {
	for _, n := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			benchFleetRead(b, n)
		})
	}
}

func benchFleetRead(b *testing.B, replicas int) {
	const keys = 4096
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	walLog := wal.NewLog()
	if err := db.AttachWAL(walLog); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable("kv"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < keys; i += 128 {
		err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
			for j := i; j < i+128; j++ {
				if err := tx.Insert("kv", fmt.Sprintf("k%06d", j), []byte("v0")); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}

	var members []router.Member
	for r := 0; r < replicas; r++ {
		rep := pgssi.NewReplica(walLog)
		defer rep.Close()
		if err := rep.WaitApplied(logLen(walLog)); err != nil {
			b.Fatal(err)
		}
		members = append(members, router.Member{
			Name:    fmt.Sprintf("r%d", r),
			Backend: rep.NewSession(),
			Status:  router.ReplicaStatus(rep),
		})
	}
	rt := router.New(
		router.Member{Name: "primary", Backend: db.NewSession(), Status: router.PrimaryStatus(db)},
		members,
		router.Config{MaxLag: 1 << 20},
	)
	defer rt.Close()

	// Write trickle: one writer advancing the WAL throughout the
	// measurement so replicas are applying, not idle.
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
				return tx.Put("kv", fmt.Sprintf("k%06d", rng.Intn(keys)), []byte(fmt.Sprintf("v%d", i)))
			})
		}
	}()

	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := rt.NewSession()
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			h, st := sess.Begin(pgssi.Serializable, true, true)
			if !st.OK() {
				b.Fatalf("begin: %v", st)
			}
			for r := 0; r < 8; r++ {
				k := fmt.Sprintf("k%06d", rng.Intn(keys))
				if _, st := sess.Get(h, "kv", k); !st.OK() && st != pgssi.StatusNotFound {
					b.Fatalf("get %s: %v", k, st)
				}
			}
			if st := sess.Commit(h); !st.OK() {
				b.Fatalf("commit: %v", st)
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-writerDone

	stats := rt.Stats()
	total := stats.ReplicaBegins + stats.PrimaryBegins
	if total > 0 {
		b.ReportMetric(float64(stats.ReplicaBegins)/float64(total), "replica-share")
	}
	b.ReportMetric(float64(stats.Fallbacks), "fallbacks")
}
