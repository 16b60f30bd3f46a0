package crcframe

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Control messages travel as one gob stream per connection direction, one
// message per frame body, so each side compiles a type's codec once per
// connection and sends its type definition once, with the first message of
// that type. The price is order: a MsgDecoder must see bodies in exactly the
// order its peer's MsgEncoder produced them, so every Encode happens where
// wire order is decided. A message that is encoded but never framed
// desynchronises the stream; the sender must then drop the connection.

// MsgEncoder encodes one connection direction's control messages. It is not
// safe for concurrent use.
type MsgEncoder struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

// NewMsgEncoder returns an encoder for a fresh connection.
func NewMsgEncoder() *MsgEncoder {
	e := &MsgEncoder{}
	e.enc = gob.NewEncoder(&e.buf)
	return e
}

// Encode returns v's encoding, valid until the next Encode.
func (e *MsgEncoder) Encode(v any) ([]byte, error) {
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("crcframe: encode: %w", err)
	}
	return e.buf.Bytes(), nil
}

// MsgDecoder decodes one connection direction's control messages. It is not
// safe for concurrent use.
type MsgDecoder struct {
	buf bytes.Buffer
	dec *gob.Decoder
}

// NewMsgDecoder returns a decoder for a fresh connection.
func NewMsgDecoder() *MsgDecoder {
	d := &MsgDecoder{}
	d.dec = gob.NewDecoder(&d.buf)
	return d
}

// Decode parses the next message, which must fill p exactly. Malformed or
// trailing bytes are ErrFrame.
func (d *MsgDecoder) Decode(p []byte, v any) error {
	d.buf.Reset()
	d.buf.Write(p)
	if err := d.dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrFrame, err)
	}
	if n := d.buf.Len(); n != 0 {
		return fmt.Errorf("%w: %d bytes trail the message", ErrFrame, n)
	}
	return nil
}
