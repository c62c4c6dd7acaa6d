package main

import (
	"sync"
	"time"
)

// Host-speed calibration.
//
// The reference host is a small shared VM whose speed changes by ±15 % within
// seconds and drifts over minutes (the same binary, seed and fixture gave a
// median latency of 3.46 ms and 4.61 ms an hour apart, with set-up time
// moving in step); ten as-measured runs spread by 6-10 % in a calm
// quarter-hour and by up to 30 % in a bad one, more than any bound worth
// having. The benchmark therefore times a fixed, cache-resident arithmetic
// kernel — the burst — alongside everything it times: between operations on
// every client through every phase of load, and from a side goroutine
// through every set-up. A timing is divided by the host factor of its own
// stretch of time:
//
//	factor = median burst time in that stretch / refBurstNs
//
// Reported latencies, rates and set-up times are thus "at reference host
// speed"; the as-measured value and the factor are printed beside every one.
// This cuts the run-to-run spreads to between a half and a third. The median
// is used because a burst now and then is stretched tenfold by a preemption,
// which made the mean track the served system worse than no scaling. The
// burst touches 16 KiB and knows nothing of the served system, so no change
// to the system can speed it up. It cannot see everything: once in a
// quarter-hour the host stalls memory itself (a pointer chase through
// 512 KiB took ten times as long for half a minute while the burst took a
// third longer); such a run is an outlier for the median over runs to
// absorb.
const (
	// refBurstNs is the burst's duration on the quiet reference host.
	refBurstNs = 400_000
	// burstEvery spaces bursts so they cost about 1 % of a client's time.
	burstEvery = 40 * time.Millisecond
	// chainRounds and wideRounds give the burst's two parts about three
	// quarters and one quarter of its time.
	chainRounds = 96
	wideRounds  = 88
)

var (
	calibData [2048]float64
	// calibSink keeps the burst's result live so the loop is not elided.
	calibSink float64
)

func init() {
	for i := range calibData {
		calibData[i] = float64(i%97) * 0.5
	}
}

// burst runs the calibration kernel once and returns how long it took. It
// has two parts. The first is a squared-distance sweep (the picker's k-means
// inner loop in miniature) with an integer hash and a data-dependent branch,
// every step waiting for the one before, as most compiled Go does. The
// second keeps eight independent sums going and so fills the processor's
// execution units. The host's main disturbance is a neighbour on the
// sibling hyperthread, which slows the second kind of code by half and the
// first by a fifth; the served system sits between them, and with this mix
// the burst slowed by as much as the served system did over 80 ten-second
// stretches (fitted powers 0.9-1.1; 1.3-1.5 for the first part alone,
// 0.6 for the second).
func burst() int64 {
	t0 := time.Now()
	var acc float64
	h := uint64(1469598103934665603)
	for r := 0; r < chainRounds; r++ {
		c := float64(r & 7)
		for i := range calibData {
			d := calibData[i] - c
			acc += d * d
			h = (h ^ uint64(i)) * 1099511628211
			if h&64 != 0 {
				acc -= 1
			}
		}
	}
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	for r := 0; r < wideRounds; r++ {
		c := float64(r&7) * 0.25
		for i := 0; i+8 <= len(calibData); i += 8 {
			d := calibData[i : i+8 : i+8]
			a0 += (d[0] - c) * d[0]
			a1 += (d[1] - c) * d[1]
			a2 += (d[2] - c) * d[2]
			a3 += (d[3] - c) * d[3]
			a4 += (d[4] - c) * d[4]
			a5 += (d[5] - c) * d[5]
			a6 += (d[6] - c) * d[6]
			a7 += (d[7] - c) * d[7]
		}
	}
	calibSink = acc + float64(h&0xff) + a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	return int64(time.Since(t0))
}

// during runs f while a side goroutine takes a burst every burstEvery, and
// returns the host factor over f's duration (1 if f was over before the
// first burst).
func during(f func() error) (factor float64, err error) {
	m := &hostMeter{}
	stop, done := make(chan struct{}), make(chan struct{})
	//lint:nakedgo-ok host-speed sampler beside a blocking call; stopped and joined below before during returns
	go func() {
		defer close(done)
		tick := time.NewTicker(burstEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				m.record(0, burst()) // one stretch: every burst at time 0
			}
		}
	}()
	err = f()
	close(stop)
	<-done
	return m.factor(0, 1), err
}

// hostMeter collects timestamped bursts from the goroutines that take them.
type hostMeter struct {
	mu     sync.Mutex
	at, ns []int64 // burst completion (ns since phase start) and duration
}

func (m *hostMeter) record(at, ns int64) {
	m.mu.Lock()
	m.at = append(m.at, at)
	m.ns = append(m.ns, ns)
	m.mu.Unlock()
}

// factor returns the host factor over [lo, hi): the median burst in the
// interval over the reference burst. With no burst in the interval it falls
// back to the whole phase, then to 1.
func (m *hostMeter) factor(lo, hi int64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var in []float64
	for i, t := range m.at {
		if t >= lo && t < hi {
			in = append(in, float64(m.ns[i]))
		}
	}
	if len(in) == 0 {
		for _, v := range m.ns {
			in = append(in, float64(v))
		}
	}
	if len(in) == 0 {
		return 1
	}
	return median(in) / refBurstNs
}
