// Package storage persists property graphs: a compact binary snapshot
// format, a JSON interchange format, CSV import/export and a write-ahead
// log for incremental mutation capture. Together these make the in-memory
// graph engine a durable substrate (the Neo4j-storage stand-in).
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/graphrules/graphrules/internal/graph"
)

// Binary snapshot layout:
//
//	magic "GRSN" | version u8 | name | nodeCount uvarint | nodes | edgeCount
//	uvarint | edges
//
// where each node is: id uvarint | labels | props, each edge is: id | from
// | to | labels | props; strings are uvarint length + bytes; props are
// count + (key, value) pairs; values are a kind byte + payload.
const (
	snapshotMagic   = "GRSN"
	snapshotVersion = 1
)

// ErrBadSnapshot reports a corrupt or incompatible snapshot stream.
var ErrBadSnapshot = errors.New("storage: bad snapshot")

// WriteSnapshot serializes the graph to w in the binary snapshot format.
func WriteSnapshot(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return err
	}
	writeString(bw, g.Name())

	nodes := g.Nodes()
	writeUvarint(bw, uint64(len(nodes)))
	for _, id := range nodes {
		if err := writeNode(bw, g.Node(id)); err != nil {
			return err
		}
	}
	edges := g.Edges()
	writeUvarint(bw, uint64(len(edges)))
	for _, id := range edges {
		if err := writeEdge(bw, g.Edge(id)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot deserializes a graph from the binary snapshot format. Node
// and edge IDs are NOT preserved verbatim; topology, labels and properties
// are (IDs are reassigned densely in snapshot order).
func ReadSnapshot(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrBadSnapshot, err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadSnapshot, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if ver != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, ver)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	g := graph.New(name)

	nodeCount, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	idMap := make(map[graph.ID]graph.ID, nodeCount)
	for i := uint64(0); i < nodeCount; i++ {
		n, err := readNode(br)
		if err != nil {
			return nil, err
		}
		idMap[n.ID] = g.AddNode(n.Labels, n.Props).ID
	}
	edgeCount, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < edgeCount; i++ {
		e, err := readEdge(br)
		if err != nil {
			return nil, err
		}
		nf, ok1 := idMap[e.From]
		nt, ok2 := idMap[e.To]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("%w: edge references unknown node %d->%d", ErrBadSnapshot, e.From, e.To)
		}
		if _, err := g.AddEdge(nf, nt, e.Labels, e.Props); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
	}
	return g, nil
}

// SaveFile writes a binary snapshot to path (atomically via a temp file).
func SaveFile(path string, g *graph.Graph) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(f, g); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a binary snapshot from path.
func LoadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// ---------- low-level encoding ----------
//
// The value codec below is shared by snapshots (over bufio) and WAL frames
// (over an in-memory payload). Writes to either never fail on their own:
// bufio latches its error until Flush, and bytes.Buffer cannot fail.

type byteWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

type byteReader interface {
	io.Reader
	io.ByteReader
}

func writeUvarint(w byteWriter, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func readUvarint(r byteReader) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return v, nil
}

const maxStringLen = 1 << 26 // 64 MiB, a sanity bound against corruption

// readLen reads a length or count prefix. Every counted item takes at
// least one byte, so when r is an in-memory payload the bytes left in it
// bound the prefix too: a corrupt length is rejected, never allocated.
func readLen(r byteReader, what string) (uint64, error) {
	n, err := readUvarint(r)
	if err != nil {
		return 0, err
	}
	limit := uint64(maxStringLen)
	if br, ok := r.(*bytes.Reader); ok {
		limit = min(limit, uint64(br.Len()))
	}
	if n > limit {
		return 0, fmt.Errorf("%w: %s length %d", ErrBadSnapshot, what, n)
	}
	return n, nil
}

func writeString(w byteWriter, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r byteReader) (string, error) {
	n, err := readLen(r, "string")
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return string(buf), nil
}

func writeStringSlice(w byteWriter, ss []string) {
	writeUvarint(w, uint64(len(ss)))
	for _, s := range ss {
		writeString(w, s)
	}
}

func readStringSlice(r byteReader) ([]string, error) {
	n, err := readLen(r, "slice")
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = readString(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// writeNode encodes id | labels | props.
func writeNode(w byteWriter, n *graph.Node) error {
	writeUvarint(w, uint64(n.ID))
	writeStringSlice(w, n.Labels)
	return writeProps(w, n.Props)
}

func readID(r byteReader) (graph.ID, error) {
	v, err := readUvarint(r)
	return graph.ID(v), err
}

func readNode(r byteReader) (*graph.Node, error) {
	var n graph.Node
	var err error
	if n.ID, err = readID(r); err != nil {
		return nil, err
	}
	if n.Labels, err = readStringSlice(r); err != nil {
		return nil, err
	}
	if n.Props, err = readProps(r); err != nil {
		return nil, err
	}
	return &n, nil
}

// writeEdge encodes id | from | to | labels | props.
func writeEdge(w byteWriter, e *graph.Edge) error {
	writeUvarint(w, uint64(e.ID))
	writeUvarint(w, uint64(e.From))
	writeUvarint(w, uint64(e.To))
	writeStringSlice(w, e.Labels)
	return writeProps(w, e.Props)
}

func readEdge(r byteReader) (*graph.Edge, error) {
	var e graph.Edge
	var err error
	for _, id := range []*graph.ID{&e.ID, &e.From, &e.To} {
		if *id, err = readID(r); err != nil {
			return nil, err
		}
	}
	if e.Labels, err = readStringSlice(r); err != nil {
		return nil, err
	}
	if e.Props, err = readProps(r); err != nil {
		return nil, err
	}
	return &e, nil
}

func writeProps(w byteWriter, p graph.Props) error {
	keys := p.Keys()
	writeUvarint(w, uint64(len(keys)))
	for _, k := range keys {
		writeString(w, k)
		if err := writeValue(w, p[k]); err != nil {
			return err
		}
	}
	return nil
}

func readProps(r byteReader) (graph.Props, error) {
	n, err := readLen(r, "props")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	p := make(graph.Props, n)
	for i := uint64(0); i < n; i++ {
		k, err := readString(r)
		if err != nil {
			return nil, err
		}
		v, err := readValue(r)
		if err != nil {
			return nil, err
		}
		p[k] = v
	}
	return p, nil
}

func writeValue(w byteWriter, v graph.Value) error {
	w.WriteByte(byte(v.Kind()))
	switch v.Kind() {
	case graph.KindNull:
	case graph.KindBool:
		if v.Bool() {
			w.WriteByte(1)
		} else {
			w.WriteByte(0)
		}
	case graph.KindInt:
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], v.Int())
		w.Write(buf[:n])
	case graph.KindFloat:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
		w.Write(buf[:])
	case graph.KindString:
		writeString(w, v.Str())
	case graph.KindList:
		writeUvarint(w, uint64(len(v.List())))
		for _, e := range v.List() {
			if err := writeValue(w, e); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("storage: unsupported value kind %v", v.Kind())
	}
	return nil
}

func readValue(r byteReader) (graph.Value, error) {
	kb, err := r.ReadByte()
	if err != nil {
		return graph.Null, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	switch graph.Kind(kb) {
	case graph.KindNull:
		return graph.Null, nil
	case graph.KindBool:
		b, err := r.ReadByte()
		if err != nil {
			return graph.Null, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		return graph.NewBool(b != 0), nil
	case graph.KindInt:
		n, err := binary.ReadVarint(r)
		if err != nil {
			return graph.Null, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		return graph.NewInt(n), nil
	case graph.KindFloat:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return graph.Null, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		return graph.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	case graph.KindString:
		s, err := readString(r)
		if err != nil {
			return graph.Null, err
		}
		return graph.NewString(s), nil
	case graph.KindList:
		n, err := readLen(r, "list")
		if err != nil {
			return graph.Null, err
		}
		elems := make([]graph.Value, n)
		for i := range elems {
			if elems[i], err = readValue(r); err != nil {
				return graph.Null, err
			}
		}
		return graph.NewList(elems...), nil
	default:
		return graph.Null, fmt.Errorf("%w: value kind %d", ErrBadSnapshot, kb)
	}
}
