package live

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aovlis/internal/stream/liveplane"
	"aovlis/internal/wire"
)

// TestUpgradeOnNetHTTP: Upgrade with net/http's types — what a net/http
// program calls — runs the same handshake on an http.Server: an upgrade
// echoes through the hijacked connection, and a request that is not one
// gets the same refusal as on the daemons' loop.
func TestUpgradeOnNetHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r, &liveplane.Options{Header: wire.Header{liveplane.ResumeHeader: []string{"7"}}})
		if err != nil {
			return
		}
		defer c.Close()
		for {
			op, msg, err := c.ReadMessage()
			if err != nil || c.WriteMessage(op, msg) != nil {
				return
			}
		}
	}))
	defer srv.Close()
	c, resp, err := Dial(srv.URL+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get(liveplane.ResumeHeader) != "7" {
		t.Fatalf("upgrade answered %s with %v", resp.Status, resp.Header)
	}
	if err := c.WriteMessage(OpText, []byte("over net/http")); err != nil {
		t.Fatal(err)
	}
	if _, msg, err := c.ReadMessage(); err != nil || string(msg) != "over net/http" {
		t.Fatalf("echo %q, %v", msg, err)
	}
	plain, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(plain.Body)
	plain.Body.Close()
	if plain.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "Connection: Upgrade") {
		t.Fatalf("a plain GET answered %s %q, want 400", plain.Status, body)
	}
}
