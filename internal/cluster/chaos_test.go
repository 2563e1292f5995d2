package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
	"uopsim/internal/server"
)

// chaosSchedules is the number of seeded schedules TestChaosSchedules runs.
const chaosSchedules = 50

// TestChaosSchedules runs seeded schedules of requests, shard severs,
// revives and restarts, and gateway restarts over a 3-shard cluster whose
// shards pull from each other. Its oracle depends on no past run: it
// models which shards hold each point. Given liveness, routing is
// deterministic — the first live ring owner serves and afterwards holds
// the point — so every request's resolution is predicted: simulated
// exactly when no live shard held the point, otherwise pulled from a peer
// or answered from the server's own store. Every request must succeed,
// and the summed Simulated and PeerHits over all shard incarnations must
// equal the predicted counts.
func TestChaosSchedules(t *testing.T) {
	pts := testPoints(6)
	fps := make([]runcache.Fingerprint, len(pts))
	for i, pt := range pts {
		fp, err := pt.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
	}
	for seed := int64(1); seed <= chaosSchedules; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaosSchedule(t, rand.New(rand.NewSource(seed)), pts, fps)
		})
	}
}

func runChaosSchedule(t *testing.T, rng *rand.Rand, pts []experiments.PointRequest, fps []runcache.Fingerprint) {
	c := bootCluster(t, 3)
	client := server.NewClient(c.url)
	index := map[string]int{}
	for i, sh := range c.shards {
		index[sh.url] = i
	}
	up := []bool{true, true, true}
	holds := make([]map[int]bool, len(pts)) // point -> shards whose store holds it
	for i := range holds {
		holds[i] = map[int]bool{}
	}
	var wantSim, wantPulls, retiredSim, retiredPulls uint64
	// pick returns a random shard whose liveness is want and how many
	// such shards there are.
	pick := func(want bool) (int, int) {
		var idx []int
		for i, u := range up {
			if u == want {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return -1, 0
		}
		return idx[rng.Intn(len(idx))], len(idx)
	}
	// awaitAlive waits for a probe round that started after shard i came
	// back to find it alive. A round already running may have probed the
	// shard while it was down and not yet reported it, so a liveness read
	// before that round ends can be stale: the report would then down a
	// live shard under the next request, which the oracle does not model.
	awaitAlive := func(i int) {
		fresh := c.gw.mem.probes.Value() + 2
		waitFor(t, "gateway sees "+c.shards[i].node, func() bool {
			return c.gw.mem.probes.Value() >= fresh && c.gw.mem.alive(c.shards[i].url)
		})
	}

	var history []string
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(20); {
		case op < 10: // request a point
			p := rng.Intn(len(pts))
			by := -1
			for _, name := range c.gw.Ring().Owners(string(fps[p]), len(c.shards)) {
				if up[index[name]] {
					by = index[name]
					break
				}
			}
			want := "simulated"
			if holds[p][by] {
				want = "" // memo or disk: the server's own copy
			} else { // a pull from any live holder
				for j, held := range holds[p] {
					if held && up[j] {
						want = "disk"
					}
				}
			}
			switch want {
			case "simulated":
				wantSim++
			case "disk":
				wantPulls++
			}
			holds[p][by] = true
			history = append(history, fmt.Sprintf("request p%d -> shard-%d %q", p, by, want))
			resp, err := client.Simulate(server.SimulateRequest{PointRequest: pts[p]})
			if err != nil {
				t.Fatalf("%q: request failed: %v", history, err)
			}
			if want == "" && resp.Resolution == "simulated" || want != "" && resp.Resolution != want {
				t.Fatalf("%q: resolution %s", history, resp.Resolution)
			}
		case op < 13: // sever a shard, keeping one up
			i, live := pick(true)
			if live < 2 {
				continue
			}
			history = append(history, fmt.Sprintf("sever shard-%d", i))
			c.shards[i].fl.setDown(true)
			up[i] = false
		case op < 16: // revive a severed shard
			i, down := pick(false)
			if down == 0 {
				continue
			}
			history = append(history, fmt.Sprintf("revive shard-%d", i))
			c.shards[i].fl.setDown(false)
			up[i] = true
			awaitAlive(i)
		case op < 18: // restart a shard: new process, same warehouse
			i := rng.Intn(len(c.shards))
			history = append(history, fmt.Sprintf("restart shard-%d", i))
			st := c.shards[i].srv.Engine().Stats()
			retiredSim += st.Simulated
			retiredPulls += st.PeerHits
			c.shards[i].boot(t)
			c.shards[i].fl.setDown(false)
			up[i] = true
			awaitAlive(i)
		default:
			history = append(history, "restart gateway")
			c.restartGateway(t)
		}
	}

	gotSim, gotPulls := retiredSim, retiredPulls
	for _, sh := range c.shards {
		st := sh.srv.Engine().Stats()
		gotSim += st.Simulated
		gotPulls += st.PeerHits
	}
	if gotSim != wantSim || gotPulls != wantPulls {
		t.Fatalf("%q: cluster simulated %d and pulled %d, oracle says %d and %d", history, gotSim, gotPulls, wantSim, wantPulls)
	}
	t.Logf("%d simulated, %d pulled: %q", gotSim, gotPulls, history)
}
