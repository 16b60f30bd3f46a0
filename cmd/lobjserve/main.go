// Lobjserve runs a database server: POSTQUEL and large-object access over
// the gateway's chunked, pipelined stream protocol on -addr, with
// just-in-time client-side decompression of large-object reads (paper §3).
// Pair it with internal/client's DialStream or the remoteaccess example.
//
// An optional -http listener serves the S3-style object API over the
// Inversion file system from the same gateway —
//
//	curl http://host:8080/bucket/key                  # GET whole object
//	curl -r 100-199 http://host:8080/bucket/key       # Range read
//	curl -T file http://host:8080/bucket/key          # PUT
//
// On a replica both listeners come up read-only: GETs and snapshot stream
// reads are served from local pages, mutations refused.
//
// A second HTTP listener exposes observability: GET /metrics renders the
// process-wide metrics registry (internal/obs) as plain text, and
// /debug/pprof/ serves the standard Go profiler endpoints.
//
// Usage:
//
//	lobjserve -db /path/to/dbdir [-addr 127.0.0.1:5439] [-metrics 127.0.0.1:5440]
//	          [-http 127.0.0.1:8080]
//
// Pass -metrics "" to disable the observability listener; -http defaults
// to off.
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"

	"postlob"
	"postlob/internal/obs"
)

func main() {
	var (
		dbdir   = flag.String("db", "", "database directory (required)")
		addr    = flag.String("addr", "127.0.0.1:5439", "listen address for the chunked pipelined stream protocol")
		metrics = flag.String("metrics", "127.0.0.1:5440", "HTTP address for /metrics and /debug/pprof (empty disables)")
		useWAL  = flag.Bool("wal", false, "open with write-ahead logging (group commit, redo recovery)")
		bgw     = flag.Bool("bgwriter", true, "run the background I/O engine (writer + scan prefetch)")
		autovac = flag.Bool("autovacuum", false, "run the online vacuum daemon (reclaims dead versions; keeps committed history)")
		repto   = flag.String("replicate", "", "listen address for WAL-shipping replicas (implies -wal)")
		repof   = flag.String("replica-of", "", "open as a read-only streaming replica of the primary at this address")
		repname = flag.String("replica-name", "", "replica identity in the primary's slots (default: db dir name)")
		httpa   = flag.String("http", "", "listen address for the S3-style HTTP object API (empty disables)")
	)
	flag.Parse()
	if *dbdir == "" {
		log.Fatal("lobjserve: -db is required")
	}
	opts := postlob.Options{
		BackgroundWriter: bgw,
		ReplicateTo:      *repto,
		ReplicaOf:        *repof,
		ReplicaName:      *repname,
	}
	if *useWAL {
		opts.Durability = postlob.DurabilityWAL
	}
	if *autovac && *repof == "" {
		opts.AutoVacuum = &postlob.VacuumOptions{}
	}
	db, err := postlob.Open(*dbdir, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if a := db.ReplicationAddr(); a != nil {
		log.Printf("lobjserve: shipping WAL to replicas on %s", a)
	}
	if db.IsReplica() {
		log.Printf("lobjserve: read-only replica of %s", *repof)
	}

	gw := db.NewGateway(postlob.GatewayOptions{})
	defer gw.Close()
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := gw.ServeStream(l); err != nil {
			log.Printf("lobjserve: stream listener: %v", err)
		}
	}()
	log.Printf("lobjserve: serving %s on %s", *dbdir, l.Addr())

	if *httpa != "" {
		hl, err := net.Listen("tcp", *httpa)
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := http.Serve(hl, gw.HTTPHandler()); err != nil {
				log.Printf("lobjserve: http listener: %v", err)
			}
		}()
		log.Printf("lobjserve: object API on http://%s/", hl.Addr())
	}

	if *metrics != "" {
		ml, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(ml, mux); err != nil {
				log.Printf("lobjserve: metrics listener: %v", err)
			}
		}()
		log.Printf("lobjserve: metrics on http://%s/metrics", ml.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Print("lobjserve: shutting down")
}
