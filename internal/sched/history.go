package sched

import "time"

// History is the Ω-window weighted speed estimator behind the PSS policy
// (§IV-A.2): the master records the progress notifications each slave sends
// and summarizes them as a weighted mean of the last Ω speed samples, with
// linearly decaying weights so recent samples dominate. A small Ω tracks
// only very recent behaviour (fast adaptation, more noise); a large Ω also
// considers older history (stable, slower to react to local load).
type History struct {
	omega   int
	samples []float64 // ring buffer of the last omega speeds, cells/second
	next    int       // ring write position
	n       int       // samples stored, <= omega

	lastTime  time.Duration // time of the previous notification
	lastValid bool
}

// DefaultOmega is the notification-window length used by the experiments.
const DefaultOmega = 8

// NewHistory returns an estimator over the last omega notifications.
// omega < 1 falls back to DefaultOmega.
func NewHistory(omega int) *History {
	if omega < 1 {
		omega = DefaultOmega
	}
	return &History{omega: omega, samples: make([]float64, omega)}
}

// Anchor sets the estimator's timebase without recording a sample: the
// next Observe divides its cell delta by the time elapsed since this
// instant. The coordinator anchors at registration, so a late-joining
// slave's first delta is measured against time it actually spent working
// rather than time since the job started (which deflated the first PSS
// speed sample for late registrants).
func (h *History) Anchor(now time.Duration) {
	h.lastTime, h.lastValid = now, true
}

// Observe records a progress notification: cells processed since the
// previous notification, at time now. An un-anchored first notification
// only anchors the timebase — without a start instant there is no sound
// elapsed time to divide by. Notifications with non-positive elapsed time
// are ignored.
func (h *History) Observe(cells int64, now time.Duration) {
	if !h.lastValid {
		h.Anchor(now)
		return
	}
	elapsed := now - h.lastTime
	h.lastTime = now
	if elapsed <= 0 || cells < 0 {
		return
	}
	h.push(float64(cells) / elapsed.Seconds())
}

// ObserveRate records a directly measured speed sample (cells/second),
// bypassing the inter-notification timing. Used when the slave reports its
// own measured rate.
func (h *History) ObserveRate(cellsPerSecond float64, now time.Duration) {
	h.lastTime, h.lastValid = now, true
	if cellsPerSecond > 0 {
		h.push(cellsPerSecond)
	}
}

func (h *History) push(v float64) {
	h.samples[h.next] = v
	h.next = (h.next + 1) % h.omega
	if h.n < h.omega {
		h.n++
	}
}

// Speed returns the Ω-window weighted mean speed in cells/second and
// whether any samples exist. The k-th most recent sample has weight
// omega-k, so the newest sample weighs omega and the oldest in the window
// weighs 1.
func (h *History) Speed() (cellsPerSecond float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	var sum, wsum float64
	for k := 0; k < h.n; k++ {
		// k-th most recent sample sits omega+next-1-k positions into the ring.
		idx := (h.next - 1 - k + h.omega + h.omega) % h.omega
		w := float64(h.omega - k)
		sum += w * h.samples[idx]
		wsum += w
	}
	return sum / wsum, true
}
