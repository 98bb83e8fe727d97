package asf

import (
	"fmt"

	"repro/internal/media"
)

// ScriptPacket builds (without writing) an in-band script packet.
func ScriptPacket(cmd ScriptCommand, stream media.StreamID) (Packet, error) {
	payload, err := encodeScriptPayload(cmd)
	if err != nil {
		return Packet{}, err
	}
	return Packet{
		Stream:  stream,
		Kind:    media.KindScript,
		Flags:   PacketKeyframe,
		PTS:     cmd.At,
		SendAt:  cmd.At,
		Payload: payload,
	}, nil
}

// ParseScriptPacket decodes an in-band script command from a packet on the
// script stream.
func ParseScriptPacket(p Packet) (ScriptCommand, error) {
	if p.Kind != media.KindScript {
		return ScriptCommand{}, fmt.Errorf("asf: packet kind %s is not a script", p.Kind)
	}
	s := &scanner{b: p.Payload}
	cmd := ScriptCommand{At: p.PTS}
	cmd.Type = s.str16()
	cmd.Param = s.str16()
	if s.err != nil {
		return ScriptCommand{}, fmt.Errorf("%w: script payload: %v", ErrCorrupt, s.err)
	}
	if cmd.Type == "" {
		return ScriptCommand{}, fmt.Errorf("%w: script with empty type", ErrCorrupt)
	}
	return cmd, nil
}

func encodeScriptPayload(cmd ScriptCommand) ([]byte, error) {
	if cmd.Type == "" {
		return nil, fmt.Errorf("asf: script with empty type")
	}
	if cmd.At < 0 {
		return nil, fmt.Errorf("asf: script at negative time %v", cmd.At)
	}
	out, err := appendStr16(make([]byte, 0, 4+len(cmd.Type)+len(cmd.Param)), cmd.Type)
	if err != nil {
		return nil, err
	}
	return appendStr16(out, cmd.Param)
}
