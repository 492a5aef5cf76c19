// Bsd is a small directory server enforcing a bounding-schema: every
// update transaction is validated with the paper's incremental legality
// tests (Figure 5) and rejected atomically on violation, so the served
// instance is legal at all times.
//
// Usage:
//
//	bsd -schema wp.bs -instance corpus.ldif [-addr 127.0.0.1:3890]
//	    [-snapshot out.ldif] [-journal changes.ldif]
//	    [-read-timeout 0] [-idle-timeout 0] [-max-conns 0]
//	    [-drain-timeout 1s] [-journal-rotate 0] [-metrics-addr host:port]
//	    [-fsck]
//	    [-repl-addr host:port] [-repl-mode async|semisync]
//	    [-replica-of host:port] [-primary-client-addr host:port]
//
// Replication: -repl-addr makes this server a primary shipping its
// journal to replicas; -repl-mode semisync gates COMMIT's OK on a
// replica acknowledging durability. -replica-of starts the server as a
// read-only replica streaming from a primary's -repl-addr; writes are
// refused with a redirect and PROMOTE turns a caught-up replica into a
// primary. Both roles require -journal.
//
// With -fsck the server does not serve: it runs the crash-recovery
// pipeline over -journal (validate record checksums and sequence
// continuity, truncate a torn tail, quarantine corruption, prove the
// recovered instance legal), prints the report, and exits 0 if the
// journal is servable, 1 if it was refused.
//
// Protocol: the line protocol internal/proto defines — one request per
// line, every reply ending in OK, ILLEGAL or ERR.
package main

import (
	"bufio"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"boundschema"
	"boundschema/internal/repl"
	"boundschema/internal/server"
)

func main() {
	schemaPath := flag.String("schema", "", "schema definition file")
	instPath := flag.String("instance", "", "initial LDIF instance (empty starts blank)")
	addr := flag.String("addr", "127.0.0.1:3890", "listen address")
	snapshot := flag.String("snapshot", "", "write the instance as LDIF on shutdown")
	journal := flag.String("journal", "", "replay and append committed transactions to this LDIF change log")
	readTimeout := flag.Duration("read-timeout", 0, "per-read deadline on client connections (0 = off)")
	idleTimeout := flag.Duration("idle-timeout", 0, "cut sessions idle between commands for this long (0 = off)")
	maxConns := flag.Int("max-conns", 0, "max concurrent sessions; further accepts queue (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", time.Second, "grace given to live sessions on shutdown")
	journalRotate := flag.Int64("journal-rotate", 0, "compact the journal into a snapshot once it exceeds this many bytes (0 = never)")
	metricsAddr := flag.String("metrics-addr", "", "serve expvar metrics over HTTP on this address (empty = off)")
	fsck := flag.Bool("fsck", false, "check and repair the -journal (truncate torn tail, quarantine corruption), print a report, and exit")
	replAddr := flag.String("repl-addr", "", "serve journal replication to replicas on this address (empty = off)")
	replModeName := flag.String("repl-mode", "async", "replication mode: async, or semisync to gate COMMIT on a replica ack")
	replicaOf := flag.String("replica-of", "", "run as a read-only replica streaming from this primary replication address")
	primaryClient := flag.String("primary-client-addr", "", "with -replica-of: the primary's CLIENT address to advertise in write redirects (empty = advertise the replication address)")
	flag.Parse()
	if *schemaPath == "" {
		fmt.Fprintln(os.Stderr, "bsd: -schema is required")
		os.Exit(2)
	}
	src, err := os.ReadFile(*schemaPath)
	if err != nil {
		fatal(err)
	}
	schema, name, err := boundschema.ParseSchema(string(src))
	if err != nil {
		fatal(err)
	}
	res := boundschema.CheckConsistency(schema)
	if !res.Consistent {
		fmt.Fprintf(os.Stderr, "bsd: schema %s is inconsistent:\n%s", name, res.Explanation)
		os.Exit(1)
	}

	dir := boundschema.NewDirectory(schema.Registry)
	if *instPath != "" {
		f, err := os.Open(*instPath)
		if err != nil {
			fatal(err)
		}
		dir, err = boundschema.ReadLDIF(f, schema.Registry)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	if *fsck {
		if *journal == "" {
			fmt.Fprintln(os.Stderr, "bsd: -fsck requires -journal")
			os.Exit(2)
		}
		srv, err := server.New(schema, name, dir)
		if err != nil {
			fatal(err)
		}
		rep, err := srv.Fsck(*journal)
		for _, l := range rep.Lines() {
			fmt.Println(l)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsd: %v\n", err)
			os.Exit(1)
		}
		return
	}
	replMode, ok := repl.ParseMode(*replModeName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bsd: unknown -repl-mode %q (want async or semisync)\n", *replModeName)
		os.Exit(2)
	}
	if (*replAddr != "" || *replicaOf != "") && *journal == "" {
		fmt.Fprintln(os.Stderr, "bsd: replication requires -journal")
		os.Exit(2)
	}
	if *replAddr != "" && *replicaOf != "" {
		fmt.Fprintln(os.Stderr, "bsd: -repl-addr and -replica-of are mutually exclusive")
		os.Exit(2)
	}
	// Bind the metrics endpoint before serving, so a port that cannot be
	// had refuses the boot and the announced address is the bound one.
	var metricsLn net.Listener
	if *metricsAddr != "" {
		if metricsLn, err = net.Listen("tcp", *metricsAddr); err != nil {
			fatal(fmt.Errorf("metrics endpoint: %v", err))
		}
	}
	srv, err := server.Open(server.Options{
		Schema: schema, Name: name, Instance: dir,
		Addr: *addr, Journal: *journal, ReplAddr: *replAddr, ReplicaOf: *replicaOf,
		JournalRotate: *journalRotate, ErrorLog: log.New(os.Stderr, "bsd: ", log.LstdFlags),
		Limits: server.Limits{ReadTimeout: *readTimeout, IdleTimeout: *idleTimeout,
			MaxConns: *maxConns, DrainTimeout: *drainTimeout},
		ReplMode: replMode, PrimaryClientAddr: *primaryClient,
	})
	if err != nil {
		fatal(err)
	}
	if *replAddr != "" {
		fmt.Printf("bsd: shipping journal (%s) to replicas on %s\n", replMode, srv.ReplAddr())
	}
	if *replicaOf != "" {
		fmt.Printf("bsd: read-only replica of %s\n", *replicaOf)
	}
	if metricsLn != nil {
		expvar.Publish("bsd", expvar.Func(func() any { return srv.MetricsSnapshot() }))
		go func() {
			err := http.Serve(metricsLn, nil)
			fmt.Fprintf(os.Stderr, "bsd: metrics endpoint: %v\n", err)
		}()
		fmt.Printf("bsd: metrics at http://%s/debug/vars\n", metricsLn.Addr())
	}
	fmt.Printf("bsd: serving schema %s (%d entries) on %s\n", name, dir.Len(), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("bsd: shutting down")
	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(f)
		if err := srv.Snapshot(w); err != nil {
			fatal(err)
		}
		w.Flush()
		f.Close()
		fmt.Printf("bsd: snapshot written to %s\n", *snapshot)
	}
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bsd: %v\n", err)
	os.Exit(1)
}
