package main

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// errPoolExhausted fails a cold run whose client used up its slice: a cold
// point is never sent twice, so a longer run needs a larger pool, not reuse.
var errPoolExhausted = errors.New("cold pool exhausted: a client ran out of never-sent points")

// phase is what one closed-loop phase observed.
type phase struct {
	lat       []time.Duration // successful requests, in completion order per client
	elapsed   time.Duration   // from the start until the last reply was in
	attempted int
	failed    int
	failures  []string
}

// drive runs one closed-loop client per slice for d: each sends its next
// point as soon as the previous reply is in and checked. With fullPass a
// client also keeps going until it has sent its whole slice once. Cold
// runs never wrap a slice.
func (r *runner) drive(d time.Duration, fullPass, warming bool) (phase, error) {
	return drive(r.slices, r.cursor, r.w.cold, d, fullPass, func(c int, p *point) error {
		return r.issue(c, p, warming)
	})
}

func drive(slices [][]*point, cursor []int, cold bool, d time.Duration, fullPass bool, issue func(c int, p *point) error) (phase, error) {
	per := make([]phase, len(slices))
	exhausted := make([]bool, len(slices))
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for c := range slices {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			own, ph := slices[c], &per[c]
			sent := 0
			for len(own) > 0 && (time.Now().Before(until) || fullPass && sent < len(own)) {
				if cold && cursor[c] >= len(own) {
					exhausted[c] = true
					break
				}
				p := own[cursor[c]%len(own)]
				cursor[c]++
				sent++
				t0 := time.Now()
				err := issue(c, p)
				lat := time.Since(t0)
				ph.attempted++
				if err != nil {
					ph.failed++
					if len(ph.failures) < maxFailures {
						ph.failures = append(ph.failures, err.Error())
					}
					continue
				}
				ph.lat = append(ph.lat, lat)
			}
		}(c)
	}
	wg.Wait()
	out := phase{elapsed: time.Since(start)}
	for c := range per {
		out.lat = append(out.lat, per[c].lat...)
		out.attempted += per[c].attempted
		out.failed += per[c].failed
		out.failures = append(out.failures, per[c].failures...)
		if exhausted[c] {
			return out, fmt.Errorf("client %d after %d points: %w", c, cursor[c], errPoolExhausted)
		}
	}
	return out, nil
}
