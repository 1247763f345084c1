//go:build !race

package dataflow

// raceEnabled reports a -race build, whose sync.Pool drops a share of the
// buffers put into it at random.
const raceEnabled = false
