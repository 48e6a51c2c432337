//! DtS message sizes: the one table every airtime on the DtS link reads.
//!
//! Three messages cross the link: the satellite's beacon, a node's
//! uplink and the satellite's ACK. The simulator needs only how long
//! each stays on air (Fig 12a varies nothing but the uplink payload), so
//! a message is its length: a body inside a LoRa PHY frame, which adds
//! [`HEADER_BYTES`] ahead of it and [`CRC_BYTES`] behind it.
//!
//! | Message | Body                                      | On air         |
//! |---------|-------------------------------------------|----------------|
//! | Beacon  | 24 B of gateway telemetry                 | 30 B           |
//! | Uplink  | 13 B header + sensor payload              | 19 B + payload |
//! | ACK     | 13 B: tag, node id, acknowledged sequence | 19 B           |

use satiot_phy::frame::{CRC_BYTES, HEADER_BYTES};

/// Beacon body, bytes: a tag, the satellite id, a beacon counter and the
/// housekeeping telemetry TinyGS-class beacons publish (battery,
/// temperature, uptime, store-and-forward depth), padded to 24 bytes.
const BEACON_BODY_BYTES: usize = 24;

/// Uplink header ahead of the sensor payload, bytes: a tag, the node id
/// and the application sequence id the server deduplicates on.
const UPLINK_HEADER_BYTES: usize = 13;

/// ACK body, bytes: a tag, the node id and the acknowledged sequence id.
const ACK_BODY_BYTES: usize = 13;

/// Beacon length on air, bytes.
pub const BEACON_ON_AIR_BYTES: usize = framed(BEACON_BODY_BYTES);

/// ACK length on air, bytes.
pub(crate) const ACK_ON_AIR_BYTES: usize = framed(ACK_BODY_BYTES);

/// Uplink length on air for a `payload_bytes` sensor reading, bytes.
pub(crate) const fn uplink_on_air_bytes(payload_bytes: usize) -> usize {
    framed(UPLINK_HEADER_BYTES + payload_bytes)
}

/// A `body`-byte message inside its PHY frame.
const fn framed(body: usize) -> usize {
    HEADER_BYTES + body + CRC_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every airtime in EXPERIMENTS.md rests on these lengths.
    #[test]
    fn on_air_sizes_are_pinned() {
        assert_eq!(BEACON_ON_AIR_BYTES, 30);
        assert_eq!(ACK_ON_AIR_BYTES, 19);
        assert_eq!(uplink_on_air_bytes(20), 39);
    }
}
