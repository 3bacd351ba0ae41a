//go:build !linux

package wal

import (
	"os"
	"time"
)

// gatherSleep and datasync: see gather_linux.go for why Linux leaves
// neither to the standard library.
func gatherSleep(d time.Duration) { time.Sleep(d) }

func datasync(f *os.File) error { return f.Sync() }
