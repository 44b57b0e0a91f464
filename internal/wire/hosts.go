package wire

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"strconv"
	"strings"
)

// hostsFile is where names resolve from.
var hostsFile = "/etc/hosts"

// LookupHost is host's addresses: the IP literal itself, or every address
// the hosts file gives the name, in the file's order. Names match without
// regard to ASCII case or a trailing dot. Anything else is a *hostError:
// there is no DNS.
func LookupHost(host string) ([]IP, error) {
	if ip, err := ParseIP(host); err == nil {
		return []IP{ip}, nil
	}
	name := strings.TrimSuffix(host, ".")
	data, err := os.ReadFile(hostsFile)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("host %q: %w", host, err)
	}
	var ips []IP
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		ip, err := ParseIP(f[0])
		if err != nil {
			continue
		}
		for _, n := range f[1:] {
			if name != "" && asciiEqualFold(strings.TrimSuffix(n, "."), name) {
				ips = append(ips, ip)
				break
			}
		}
	}
	if len(ips) == 0 {
		return nil, &hostError{Host: host}
	}
	return ips, nil
}

// hostError is a host that is neither an IP literal nor a name in the
// hosts file.
type hostError struct{ Host string }

func (e *hostError) Error() string {
	return fmt.Sprintf("host %q is not an IP literal or a name in %s", e.Host, hostsFile)
}

// errPort is a port that is not a decimal number from 0 to 65535.
var errPort = errors.New("port must be a number from 0 to 65535")

// splitHostPort splits "host:port", "[host]:port" or ":port"; the port is
// numeric.
func splitHostPort(addr string) (host string, port int, err error) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return "", 0, errors.New("missing port in address")
	}
	host, ps := addr[:i], addr[i+1:]
	if len(host) > 0 && host[0] == '[' {
		if host[len(host)-1] != ']' {
			return "", 0, errors.New("missing ']' in address")
		}
		host = host[1 : len(host)-1]
	} else if strings.IndexByte(host, ':') >= 0 {
		return "", 0, errors.New("too many colons in address")
	}
	p, err := strconv.ParseUint(ps, 10, 16)
	if err != nil {
		return "", 0, errPort
	}
	return host, int(p), nil
}

// joinHostPort is "host:port", with an IPv6 literal in brackets.
func joinHostPort(host, port string) string {
	if strings.IndexByte(host, ':') >= 0 {
		return "[" + host + "]:" + port
	}
	return host + ":" + port
}

// HostPort is the dialable host:port of u, with the scheme's default port
// when u names none. It goes through Hostname and Port, so an IPv6 literal
// ends up in exactly one pair of brackets whether or not it carried a port.
func HostPort(u *url.URL) string {
	port := u.Port()
	switch {
	case port != "":
	case u.Scheme == "https" || u.Scheme == "wss":
		port = "443"
	default:
		port = "80"
	}
	return joinHostPort(u.Hostname(), port)
}
