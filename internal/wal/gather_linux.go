package wal

import (
	"syscall"
	"time"
)

// gatherSleep waits out the group-commit gather window on the kernel's
// high-resolution timer. time.Sleep cannot: once every committer is
// parked on its ticket the process is idle, an idle Go runtime waits for
// its next timer inside epoll_wait, and epoll_wait takes its timeout in
// whole milliseconds — the 200 µs window then lasts over a millisecond,
// on every flush, exactly when nobody is left who could still join the
// batch. The flusher's thread blocks for the window; the scheduler hands
// its P on as for any blocking syscall. A signal may end the window
// early, which costs one smaller batch.
func gatherSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
