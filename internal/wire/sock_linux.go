package wire

import "syscall"

// keepAliveOptions time the keep-alive probes as net does.
var keepAliveOptions = [][3]int{
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, keepAliveIdle},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, keepAliveInterval},
	{syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, keepAliveCount},
}
