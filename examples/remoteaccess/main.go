// Remoteaccess demonstrates the client-server story of §3: a remote
// application queries the database over the gateway's stream protocol and
// reads a compressed large object with just-in-time decompression on the
// client — the network carries the stored (compressed) bytes, not the
// logical ones.
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"

	"postlob"
	"postlob/internal/adt"
	"postlob/internal/client"
	"postlob/internal/compress"
)

func main() {
	dir, err := os.MkdirTemp("", "postlob-remote-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Server side.
	db, err := postlob.Open(dir, postlob.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	gw := db.NewGateway(postlob.GatewayOptions{})
	defer gw.Close()
	go gw.ServeStream(l)
	fmt.Printf("server listening on %s\n", l.Addr())

	// Load a compressed satellite image (§3's example workload).
	const logical = 1 << 20
	var ref postlob.ObjectRef
	err = db.RunInTxn(func(tx *postlob.Txn) error {
		var obj postlob.Object
		var err error
		ref, obj, err = db.LargeObjects().Create(tx, postlob.CreateOptions{
			Kind: postlob.FChunk, Codec: "tight",
		})
		if err != nil {
			return err
		}
		if _, err := obj.Write(compress.GenFrame(42, logical, 0.5)); err != nil {
			return err
		}
		return obj.Close()
	})
	if err != nil {
		log.Fatal(err)
	}

	// Client side: query for the object, then stream it.
	c, err := client.DialStream(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		log.Fatal(err)
	}
	defer c.Abort()

	// A remote query, for good measure.
	res, err := c.Exec(`retrieve (f = newfilename())`)
	if err != nil {
		log.Fatal(err)
	}
	v, _ := res.First()
	fmt.Printf("remote query ran: newfilename() = %s\n", v.Str)

	obj, err := c.Open(adt.ObjectRef{OID: ref.OID})
	if err != nil {
		log.Fatal(err)
	}
	defer obj.Close()
	var total int64
	buf := make([]byte, 64*1024)
	for {
		n, err := obj.Read(buf)
		total += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("streamed %d logical bytes; %d bytes crossed the network (%.0f%%)\n",
		total, c.WireBytesIn(), 100*float64(c.WireBytesIn())/float64(total))
	fmt.Println("the client did the decompression — just-in-time conversion (§3)")
}
