//go:build !linux

package wal

import "time"

// gatherSleep waits out the group-commit gather window. See
// gather_linux.go for why Linux does not leave this to time.Sleep.
func gatherSleep(d time.Duration) { time.Sleep(d) }
