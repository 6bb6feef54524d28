package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzServerLine: whatever lines a client sends, the server does not
// panic, answers every q line with zero or more sol lines and then exactly
// one of "end n" (n the number of sol lines), "err ..." or "overloaded
// retry-after=...", closes a connection that sends an over-long line
// without a reply, and afterwards still answers ping on a fresh
// connection. Inputs naming BACKUP, which writes a file, are skipped.
// Plain `go test` runs the seeds; explore further with
//
//	go test ./internal/server -run '^$' -fuzz FuzzServerLine -fuzztime 15s
func FuzzServerLine(f *testing.F) {
	kb, err := core.OpenKB(core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { kb.Close() })
	s, err := kb.NewSession()
	if err != nil {
		f.Fatal(err)
	}
	err = s.ConsultExternal(`item(k12, g, 3, t). r7(k3, 5). route(stop_1, stop_9, 12).
		direct(stop_1, stop_2, l1, 4). schedule2(wline_0, bus, w0_1_a, w0_1_b, 7).
		path(n3_4, n3_5). path(n3_4, n4_4). sg(t5, t6).`)
	s.Close()
	if err != nil {
		f.Fatal(err)
	}
	_, addr := newTestServer(f, kb, Config{
		MaxSessions:  2,
		QueryTimeout: 100 * time.Millisecond,
		Quota:        core.Quota{HeapCells: 1 << 20, Solutions: 64},
		SessionInit: func(s *core.Session) error {
			s.Machine().Out = io.Discard
			return nil
		},
	})
	dial := func(t *testing.T) (net.Conn, *bufio.Reader) {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(30 * time.Second))
		r := bufio.NewReader(c)
		if g, err := r.ReadString('\n'); err != nil || g != protoGreeting+"\n" {
			t.Fatalf("greeting %q, %v", g, err)
		}
		return c, r
	}

	for _, seed := range []string{
		"q item(k12, G, V, Tag)", "q r7(k3, V)", "q route(stop_1, stop_9, V)",
		"q direct(stop_1, stop_2, Line, V)", "q schedule2(wline_0, bus, w0_1_a, w0_1_b, 7)",
		"q path(n3_4, X)", "q sg(t5, Y)", "TXN", "COMMIT", "ROLLBACK", "ping", "quit", "",
		"q " + strings.Repeat("a", maxLineBytes),
		"TXN\nq item(k12, G, V, Tag)\nROLLBACK\nq path(X, Y)\nping",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		lines := strings.Split(in, "\n")
		for _, line := range lines {
			if cmd, _, _ := strings.Cut(strings.TrimSpace(line), " "); strings.EqualFold(cmd, "backup") {
				return
			}
		}
		c, r := dial(t)
		reply := func(line string) string {
			t.Helper()
			got, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("%q: reply %q, %v", line, got, err)
			}
			return strings.TrimSuffix(got, "\n")
		}
		for _, line := range lines {
			if _, err := fmt.Fprintf(c, "%s\n", line); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			if len(line) >= maxLineBytes {
				if got, err := r.ReadString('\n'); err == nil {
					t.Fatalf("an over-long line got the reply %q", got)
				}
				break
			}
			cmd, _, _ := strings.Cut(strings.TrimSpace(strings.TrimSuffix(line, "\r")), " ")
			switch cmd {
			case "":
			case "q":
				sols := 0
				for got := reply(line); got != fmt.Sprintf("end %d", sols); got = reply(line) {
					if strings.HasPrefix(got, "err ") || strings.HasPrefix(got, overloadedPrefix) {
						break
					}
					if !strings.HasPrefix(got, "sol ") {
						t.Fatalf("%q: after %d sol lines, %q", line, sols, got)
					}
					sols++
				}
			case "quit":
				if got := reply(line); got != protoBye {
					t.Fatalf("quit: %q", got)
				}
			case "ping":
				if got := reply(line); got != protoPong {
					t.Fatalf("ping: %q", got)
				}
			default:
				reply(line)
			}
			if cmd == "quit" {
				break
			}
		}
		c, r = dial(t)
		if _, err := fmt.Fprintf(c, "ping\n"); err != nil {
			t.Fatal(err)
		}
		if got := reply("ping"); got != protoPong {
			t.Fatalf("a fresh connection's ping: %q", got)
		}
	})
}
