//go:build unix && !linux

package wire

// keepAliveOptions is empty where syscall has no names for the probe
// timing: keep-alive is on, with the system's timing.
var keepAliveOptions [][3]int
