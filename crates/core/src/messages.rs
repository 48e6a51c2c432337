//! The DtS application protocol messages, serialised through the
//! `satiot-phy` frame codec.
//!
//! Three message types flow over the DtS link:
//!
//! * [`Beacon`] — satellite → ground broadcast announcing the gateway.
//! * [`Uplink`] — node → satellite sensor data with a sequence ID.
//! * [`Ack`] — satellite → node confirmation of one uplink.
//!
//! Each message serialises into a typed payload (1-byte discriminant +
//! big-endian fields) carried inside a [`satiot_phy::frame::LoRaFrame`],
//! so the full encode → corrupt → CRC-reject path of a real modem is
//! exercised by the simulator.

use satiot_phy::frame::{FrameError, LoRaFrame};
use satiot_phy::params::CodingRate;

/// Message discriminants.
const TAG_BEACON: u8 = 0x01;
const TAG_UPLINK: u8 = 0x02;
const TAG_ACK: u8 = 0x03;

/// Errors decoding a DtS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageError {
    /// The underlying PHY frame failed to decode.
    Frame(FrameError),
    /// Unknown message tag.
    UnknownTag(u8),
    /// Payload shorter than the message requires.
    Truncated,
}

impl From<FrameError> for MessageError {
    fn from(e: FrameError) -> Self {
        MessageError::Frame(e)
    }
}

impl core::fmt::Display for MessageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MessageError::Frame(e) => write!(f, "phy frame: {e}"),
            MessageError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            MessageError::Truncated => write!(f, "message payload truncated"),
        }
    }
}

impl std::error::Error for MessageError {}

/// A satellite gateway beacon, carrying the housekeeping telemetry
/// TinyGS-class beacons publish (battery, temperature, uptime).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Beacon {
    /// Satellite identifier.
    pub sat_id: u32,
    /// Monotonic beacon counter.
    pub counter: u32,
    /// Bus battery voltage, millivolts.
    pub battery_mv: u16,
    /// Payload temperature, 0.1 °C steps.
    pub temperature_dc: i16,
    /// Seconds since last payload reboot.
    pub uptime_s: u32,
    /// Packets currently in the store-and-forward buffer.
    pub buffered: u16,
}

impl Beacon {
    /// A beacon with nominal housekeeping values.
    pub fn nominal(sat_id: u32, counter: u32) -> Beacon {
        Beacon {
            sat_id,
            counter,
            battery_mv: 7_900,
            temperature_dc: 184, // 18.4 °C in sunlight-averaged LEO.
            uptime_s: counter.wrapping_mul(60),
            buffered: 0,
        }
    }
}

/// A node's sensor-data uplink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Uplink {
    /// Sending node identifier.
    pub node_id: u32,
    /// Application sequence ID (unique per packet, reused across
    /// retransmissions — the server deduplicates on it).
    pub seq: u64,
    /// Sensor payload bytes.
    pub data: Vec<u8>,
}

/// A satellite's acknowledgement of one uplink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// Acknowledged node.
    pub node_id: u32,
    /// Acknowledged sequence ID.
    pub seq: u64,
}

/// Any DtS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Satellite beacon.
    Beacon(Beacon),
    /// Node uplink.
    Uplink(Uplink),
    /// Satellite ACK.
    Ack(Ack),
}

impl Message {
    /// Serialise into a PHY frame with the given coding rate.
    pub fn to_frame(&self, cr: CodingRate) -> LoRaFrame {
        let mut buf = Vec::new();
        match self {
            Message::Beacon(b) => {
                buf.push(TAG_BEACON);
                buf.extend_from_slice(&b.sat_id.to_be_bytes());
                buf.extend_from_slice(&b.counter.to_be_bytes());
                buf.extend_from_slice(&b.battery_mv.to_be_bytes());
                buf.extend_from_slice(&b.temperature_dc.to_be_bytes());
                buf.extend_from_slice(&b.uptime_s.to_be_bytes());
                buf.extend_from_slice(&b.buffered.to_be_bytes());
                // Reserved bytes keep the wire image at the calibrated
                // 24-byte beacon payload.
                buf.extend_from_slice(&[0u8; 5]);
            }
            Message::Uplink(u) => {
                buf.push(TAG_UPLINK);
                buf.extend_from_slice(&u.node_id.to_be_bytes());
                buf.extend_from_slice(&u.seq.to_be_bytes());
                buf.extend_from_slice(&u.data);
            }
            Message::Ack(a) => {
                buf.push(TAG_ACK);
                buf.extend_from_slice(&a.node_id.to_be_bytes());
                buf.extend_from_slice(&a.seq.to_be_bytes());
            }
        }
        LoRaFrame::new(buf, cr)
    }

    /// Parse from a decoded PHY frame payload.
    pub fn from_frame(frame: &LoRaFrame) -> Result<Message, MessageError> {
        let (&tag, body) = frame.payload.split_first().ok_or(MessageError::Truncated)?;
        // The body after the tag, once it holds at least `len` bytes.
        let fields = |len: usize| {
            if body.len() < len {
                Err(MessageError::Truncated)
            } else {
                Ok(Fields(body))
            }
        };
        match tag {
            TAG_BEACON => {
                let mut f = fields(23)?;
                Ok(Message::Beacon(Beacon {
                    sat_id: u32::from_be_bytes(f.take()),
                    counter: u32::from_be_bytes(f.take()),
                    battery_mv: u16::from_be_bytes(f.take()),
                    temperature_dc: i16::from_be_bytes(f.take()),
                    uptime_s: u32::from_be_bytes(f.take()),
                    buffered: u16::from_be_bytes(f.take()),
                }))
            }
            TAG_UPLINK => {
                let mut f = fields(12)?;
                Ok(Message::Uplink(Uplink {
                    node_id: u32::from_be_bytes(f.take()),
                    seq: u64::from_be_bytes(f.take()),
                    data: f.0.to_vec(),
                }))
            }
            TAG_ACK => {
                let mut f = fields(12)?;
                Ok(Message::Ack(Ack {
                    node_id: u32::from_be_bytes(f.take()),
                    seq: u64::from_be_bytes(f.take()),
                }))
            }
            other => Err(MessageError::UnknownTag(other)),
        }
    }

    /// Wire round trip: encode to frame bytes and decode back, through
    /// the full codec path (the codec tests use it).
    pub fn wire_round_trip(&self, cr: CodingRate) -> Result<Message, MessageError> {
        let frame = LoRaFrame::decode(&self.to_frame(cr).encode())?;
        Message::from_frame(&frame)
    }

    /// PHY payload length of this message when framed (bytes) — the
    /// length the airtime formula should be fed.
    pub fn phy_payload_len(&self, cr: CodingRate) -> usize {
        self.to_frame(cr).wire_len()
    }
}

/// Big-endian fields read in order from a payload whose length the
/// caller has already checked.
struct Fields<'a>(&'a [u8]);

impl Fields<'_> {
    /// The next `N` bytes.
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        let mut out = [0u8; N];
        out.copy_from_slice(head);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_round_trip() {
        let msg = Message::Beacon(Beacon {
            sat_id: 17,
            counter: 123_456,
            battery_mv: 7_421,
            temperature_dc: -125, // −12.5 °C in eclipse.
            uptime_s: 86_400 * 40,
            buffered: 512,
        });
        assert_eq!(msg.wire_round_trip(CodingRate::Cr4_5).unwrap(), msg);
    }

    #[test]
    fn uplink_round_trip_preserves_data() {
        let msg = Message::Uplink(Uplink {
            node_id: 2,
            seq: 0xDEAD_BEEF_0042,
            data: b"soil=0.31;t=22.4C;rh=88".to_vec(),
        });
        let back = msg.wire_round_trip(CodingRate::Cr4_8).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn ack_round_trip() {
        let msg = Message::Ack(Ack {
            node_id: 1,
            seq: 99,
        });
        assert_eq!(msg.wire_round_trip(CodingRate::Cr4_5).unwrap(), msg);
    }

    #[test]
    fn beacon_payload_length_matches_calibration() {
        let msg = Message::Beacon(Beacon::nominal(0, 0));
        let frame = msg.to_frame(CodingRate::Cr4_5);
        assert_eq!(frame.payload.len(), crate::calib::BEACON_PAYLOAD_BYTES);
    }

    #[test]
    fn nominal_beacon_is_sane() {
        let b = Beacon::nominal(3, 7);
        assert_eq!(b.sat_id, 3);
        assert!(b.battery_mv > 6_000);
        assert_eq!(b.uptime_s, 420);
    }

    #[test]
    fn corrupted_wire_is_rejected() {
        let msg = Message::Uplink(Uplink {
            node_id: 1,
            seq: 7,
            data: vec![9; 20],
        });
        let mut wire = msg.to_frame(CodingRate::Cr4_8).encode();
        let mid = wire.len() / 2;
        wire[mid] ^= 0xA5;
        let result = LoRaFrame::decode(&wire).map_err(MessageError::from);
        assert!(result.is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let frame = LoRaFrame::new(vec![0x7F, 0, 0, 0, 0], CodingRate::Cr4_5);
        assert_eq!(
            Message::from_frame(&frame),
            Err(MessageError::UnknownTag(0x7F))
        );
    }

    #[test]
    fn truncated_messages_are_rejected() {
        for tag in [TAG_BEACON, TAG_UPLINK, TAG_ACK] {
            let frame = LoRaFrame::new(vec![tag, 1, 2], CodingRate::Cr4_5);
            assert_eq!(Message::from_frame(&frame), Err(MessageError::Truncated));
        }
        let empty = LoRaFrame::new(Vec::new(), CodingRate::Cr4_5);
        assert_eq!(Message::from_frame(&empty), Err(MessageError::Truncated));
    }

    #[test]
    fn uplink_phy_length_tracks_data_size() {
        let small = Message::Uplink(Uplink {
            node_id: 0,
            seq: 0,
            data: vec![0; 10],
        });
        let large = Message::Uplink(Uplink {
            node_id: 0,
            seq: 0,
            data: vec![0; 120],
        });
        let d = large.phy_payload_len(CodingRate::Cr4_8) - small.phy_payload_len(CodingRate::Cr4_8);
        assert_eq!(d, 110);
    }
}
