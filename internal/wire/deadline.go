package wire

import "time"

// rearmFraction is the share of a timeout that must elapse before a
// CoarseDeadline is armed again.
const rearmFraction = 4

// CoarseDeadline keeps a connection deadline at least timeout in the
// future without touching the runtime's timers on every request: it is
// armed timeout + timeout/rearmFraction ahead, and armed again only once
// timeout/rearmFraction has passed. An operation that starts right
// after Next therefore has between timeout and 1.25 × timeout to finish,
// where a deadline set per request would give it exactly timeout. The
// zero value never arms.
type CoarseDeadline struct {
	Timeout time.Duration
	armed   time.Time
}

// Next reports whether the deadline has to be set again at now, and to
// what.
func (d *CoarseDeadline) Next(now time.Time) (time.Time, bool) {
	slack := d.Timeout / rearmFraction
	if d.Timeout <= 0 || now.Sub(d.armed) < slack {
		return time.Time{}, false
	}
	d.armed = now
	return now.Add(d.Timeout + slack), true
}
