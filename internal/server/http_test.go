package server

import (
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestListenAndServeShutsDownOnSIGTERM drives the serve loop uopsimd and
// uopgate share: SIGTERM stops the listener, runs the drain step and
// returns nil, and a drain step that outlives the budget is abandoned when
// the budget runs out, still returning nil.
func TestListenAndServeShutsDownOnSIGTERM(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stuck bool
	}{{"drained", false}, {"budget exhausted", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()

			release := make(chan struct{})
			defer close(release)
			var drained atomic.Bool
			drain := func() {
				if tc.stuck {
					<-release
				}
				drained.Store(true)
			}
			hs := &http.Server{Addr: addr, Handler: http.NotFoundHandler()}
			served := make(chan error, 1)
			go func() { served <- ListenAndServe("test", hs, 200*time.Millisecond, drain) }()

			// A connection proves the listener is open, and so that
			// SIGTERM is caught rather than fatal to the test binary.
			deadline := time.Now().Add(10 * time.Second)
			for {
				c, err := net.Dial("tcp", addr)
				if err == nil {
					c.Close()
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("listener never opened: %v", err)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-served:
				if err != nil {
					t.Fatalf("ListenAndServe after SIGTERM: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("ListenAndServe did not return after SIGTERM")
			}
			if drained.Load() == tc.stuck {
				t.Fatalf("drain finished = %v, want %v", drained.Load(), !tc.stuck)
			}
			if _, err := net.Dial("tcp", addr); err == nil {
				t.Fatal("listener still open after shutdown")
			}
		})
	}
}
