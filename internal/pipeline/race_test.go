//go:build race

package pipeline

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of what it is given on purpose, so pooled paths allocate more.
const raceEnabled = true
