//! M3U8 manifest encoding and parsing (HLS subset, RFC 8216).
//!
//! The pollution attacks of §IV-C distinguish *manifest* tampering (detected
//! by the provider's slow-start consistency check) from *segment* tampering
//! (undetected). Real manifests flow through the simulated CDN so the
//! attacks operate on the same artifacts as in the paper.

use std::time::Duration;

use crate::source::{SegmentId, VideoId, VideoSource};

/// One entry of a media playlist.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Media sequence number.
    pub seq: u64,
    /// Play duration.
    pub duration: Duration,
    /// Segment URI.
    pub uri: String,
}

/// A parsed HLS media playlist.
#[derive(Debug, Clone, PartialEq)]
pub struct MediaPlaylist {
    /// Maximum segment duration in whole seconds.
    pub target_duration: u64,
    /// Sequence number of the first entry.
    pub media_sequence: u64,
    /// Segment entries in order.
    pub entries: Vec<ManifestEntry>,
    /// Whether the playlist ends (VOD) or keeps sliding (live).
    pub ended: bool,
}

/// Error from [`MediaPlaylist::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseManifestError {
    /// Input did not start with `#EXTM3U`.
    MissingHeader,
    /// A numeric field failed to parse (line number).
    BadNumber(usize),
    /// An `#EXTINF` had no following URI line.
    DanglingInf(usize),
}

impl std::fmt::Display for ParseManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseManifestError::MissingHeader => write!(f, "missing #EXTM3U header"),
            ParseManifestError::BadNumber(l) => write!(f, "unparsable number on line {l}"),
            ParseManifestError::DanglingInf(l) => write!(f, "#EXTINF without URI on line {l}"),
        }
    }
}

impl std::error::Error for ParseManifestError {}

impl MediaPlaylist {
    /// Builds the playlist a CDN would serve for `source` at rendition
    /// `rendition`, covering sequences `[from, to)`.
    pub fn for_source(source: &VideoSource, rendition: u8, from: u64, to: u64) -> Self {
        let entries = (from..to)
            .map(|seq| ManifestEntry {
                seq,
                duration: source.segment_duration(),
                uri: format!("r{rendition}/s{seq}.ts"),
            })
            .collect();
        MediaPlaylist {
            target_duration: source.segment_duration().as_secs().max(1),
            media_sequence: from,
            entries,
            ended: !source.is_live() && Some(to) == source.total_segments(),
        }
    }

    /// Serializes to M3U8 text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("#EXTM3U\n#EXT-X-VERSION:3\n");
        out.push_str(&format!("#EXT-X-TARGETDURATION:{}\n", self.target_duration));
        out.push_str(&format!("#EXT-X-MEDIA-SEQUENCE:{}\n", self.media_sequence));
        for e in &self.entries {
            out.push_str(&format!(
                "#EXTINF:{:.3},\n{}\n",
                e.duration.as_secs_f64(),
                e.uri
            ));
        }
        if self.ended {
            out.push_str("#EXT-X-ENDLIST\n");
        }
        out
    }

    /// Parses M3U8 text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseManifestError`] for missing headers, bad numbers, or a
    /// trailing `#EXTINF` without a URI.
    pub fn parse(text: &str) -> Result<Self, ParseManifestError> {
        let mut lines = text.lines().enumerate().peekable();
        match lines.next() {
            Some((_, l)) if l.trim() == "#EXTM3U" => {}
            _ => return Err(ParseManifestError::MissingHeader),
        }
        let mut playlist = MediaPlaylist {
            target_duration: 0,
            media_sequence: 0,
            entries: Vec::new(),
            ended: false,
        };
        let mut next_seq = 0u64;
        while let Some((lineno, line)) = lines.next() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(v) = line.strip_prefix("#EXT-X-TARGETDURATION:") {
                playlist.target_duration = v
                    .parse()
                    .map_err(|_| ParseManifestError::BadNumber(lineno + 1))?;
            } else if let Some(v) = line.strip_prefix("#EXT-X-MEDIA-SEQUENCE:") {
                playlist.media_sequence = v
                    .parse()
                    .map_err(|_| ParseManifestError::BadNumber(lineno + 1))?;
                // Per RFC 8216 the tag must precede the first segment; a
                // late tag must not renumber already-parsed entries.
                if playlist.entries.is_empty() {
                    next_seq = playlist.media_sequence;
                }
            } else if let Some(v) = line.strip_prefix("#EXTINF:") {
                let dur_text = v.split(',').next().unwrap_or_default();
                let secs: f64 = dur_text
                    .parse()
                    .map_err(|_| ParseManifestError::BadNumber(lineno + 1))?;
                let uri = loop {
                    match lines.next() {
                        Some((_, l)) if l.trim().is_empty() => continue,
                        Some((_, l)) if !l.trim().starts_with('#') => break l.trim().to_string(),
                        _ => return Err(ParseManifestError::DanglingInf(lineno + 1)),
                    }
                };
                playlist.entries.push(ManifestEntry {
                    seq: next_seq,
                    duration: Duration::from_secs_f64(secs),
                    uri,
                });
                next_seq += 1;
            } else if line == "#EXT-X-ENDLIST" {
                playlist.ended = true;
            }
            // Unknown tags are ignored, as real players do.
        }
        Ok(playlist)
    }

    /// Resolves an entry to a [`SegmentId`] for `video`, by parsing the
    /// `r<rendition>/s<seq>.ts` URI convention used by the simulated CDN.
    pub fn segment_id(&self, video: &VideoId, entry: &ManifestEntry) -> Option<SegmentId> {
        let rest = entry.uri.strip_prefix('r')?;
        let (rendition, rest) = rest.split_once("/s")?;
        let seq = rest.strip_suffix(".ts")?;
        Some(SegmentId {
            video: video.clone(),
            rendition: rendition.parse().ok()?,
            seq: seq.parse().ok()?,
        })
    }
}

/// A master playlist listing renditions of a video.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterPlaylist {
    /// `(bandwidth_bps, uri)` per rendition.
    pub variants: Vec<(u64, String)>,
}

impl MasterPlaylist {
    /// Builds the master playlist of `source`.
    pub fn for_source(source: &VideoSource) -> Self {
        MasterPlaylist {
            variants: source
                .ladder()
                .iter()
                .enumerate()
                .map(|(i, bw)| (*bw, format!("r{i}/playlist.m3u8")))
                .collect(),
        }
    }

    /// Serializes to M3U8 text.
    pub fn encode(&self) -> String {
        let mut out = String::from("#EXTM3U\n");
        for (bw, uri) in &self.variants {
            out.push_str(&format!("#EXT-X-STREAM-INF:BANDWIDTH={bw}\n{uri}\n"));
        }
        out
    }

    /// Parses M3U8 master playlist text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseManifestError`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, ParseManifestError> {
        let mut lines = text.lines().enumerate().peekable();
        match lines.next() {
            Some((_, l)) if l.trim() == "#EXTM3U" => {}
            _ => return Err(ParseManifestError::MissingHeader),
        }
        let mut variants = Vec::new();
        while let Some((lineno, line)) = lines.next() {
            let line = line.trim();
            if let Some(attrs) = line.strip_prefix("#EXT-X-STREAM-INF:") {
                let bw = attrs
                    .split(',')
                    .find_map(|kv| kv.strip_prefix("BANDWIDTH="))
                    .ok_or(ParseManifestError::BadNumber(lineno + 1))?
                    .parse()
                    .map_err(|_| ParseManifestError::BadNumber(lineno + 1))?;
                let uri = loop {
                    match lines.next() {
                        Some((_, l)) if l.trim().is_empty() => continue,
                        Some((_, l)) if !l.trim().starts_with('#') => break l.trim().to_string(),
                        _ => return Err(ParseManifestError::DanglingInf(lineno + 1)),
                    }
                };
                variants.push((bw, uri));
            }
        }
        Ok(MasterPlaylist { variants })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src() -> VideoSource {
        VideoSource::vod("v", vec![1_000_000, 3_000_000], Duration::from_secs(10), 5)
    }

    #[test]
    fn media_roundtrip() {
        let m = MediaPlaylist::for_source(&src(), 0, 0, 5);
        let text = m.encode();
        let back = MediaPlaylist::parse(&text).unwrap();
        assert_eq!(back, m);
        assert!(back.ended);
        assert_eq!(back.entries.len(), 5);
    }

    #[test]
    fn live_window_roundtrip() {
        let live = VideoSource::live("ch", vec![2_000_000], Duration::from_secs(4));
        let m = MediaPlaylist::for_source(&live, 0, 7, 10);
        assert!(!m.ended);
        assert_eq!(m.media_sequence, 7);
        let back = MediaPlaylist::parse(&m.encode()).unwrap();
        assert_eq!(back.entries[0].seq, 7);
        assert_eq!(back.entries.len(), 3);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            MediaPlaylist::parse("not a manifest"),
            Err(ParseManifestError::MissingHeader)
        );
        assert!(matches!(
            MediaPlaylist::parse("#EXTM3U\n#EXT-X-TARGETDURATION:abc\n"),
            Err(ParseManifestError::BadNumber(2))
        ));
        assert!(matches!(
            MediaPlaylist::parse("#EXTM3U\n#EXTINF:10,\n"),
            Err(ParseManifestError::DanglingInf(2))
        ));
    }

    #[test]
    fn unknown_tags_ignored() {
        let text = "#EXTM3U\n#EXT-X-VERSION:3\n#EXT-X-FANCY:1\n#EXT-X-TARGETDURATION:10\n#EXT-X-MEDIA-SEQUENCE:0\n#EXTINF:10.000,\nr0/s0.ts\n";
        let m = MediaPlaylist::parse(text).unwrap();
        assert_eq!(m.entries.len(), 1);
    }

    #[test]
    fn segment_id_resolution() {
        let m = MediaPlaylist::for_source(&src(), 1, 2, 4);
        let vid = VideoId::new("v");
        let id = m.segment_id(&vid, &m.entries[0]).unwrap();
        assert_eq!(id.rendition, 1);
        assert_eq!(id.seq, 2);
        let bogus = ManifestEntry {
            seq: 0,
            duration: Duration::from_secs(1),
            uri: "weird.ts".into(),
        };
        assert!(m.segment_id(&vid, &bogus).is_none());
    }

    #[test]
    fn master_roundtrip() {
        let m = MasterPlaylist::for_source(&src());
        let back = MasterPlaylist::parse(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.variants.len(), 2);
        assert_eq!(back.variants[0].0, 1_000_000);
    }

    #[test]
    fn extinf_title_and_blank_lines_are_skipped() {
        let text = "#EXTM3U\n\n#EXTINF:4.5,Opening titles\n\n\nr0/s0.ts\n";
        let m = MediaPlaylist::parse(text).unwrap();
        assert_eq!(m.entries.len(), 1);
        assert_eq!(m.entries[0].duration, Duration::from_millis(4500));
        assert_eq!(m.entries[0].uri, "r0/s0.ts");
    }

    #[test]
    fn vod_window_short_of_the_end_is_not_ended() {
        assert!(!MediaPlaylist::for_source(&src(), 0, 0, 3).ended);
        assert!(MediaPlaylist::for_source(&src(), 0, 2, 5).ended);
    }

    #[test]
    fn master_parse_rejects_malformed_variants() {
        assert_eq!(
            MasterPlaylist::parse("#EXT-X-STREAM-INF:BANDWIDTH=1\na.m3u8\n"),
            Err(ParseManifestError::MissingHeader)
        );
        assert_eq!(
            MasterPlaylist::parse("#EXTM3U\n#EXT-X-STREAM-INF:RESOLUTION=1x1\na.m3u8\n"),
            Err(ParseManifestError::BadNumber(2))
        );
        assert_eq!(
            MasterPlaylist::parse("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=5\n#EXT-X-X\n"),
            Err(ParseManifestError::DanglingInf(2))
        );
    }

    #[test]
    fn sequence_numbers_honour_media_sequence_position() {
        // MEDIA-SEQUENCE appearing after the first EXTINF must not renumber
        // already-parsed entries.
        let text = "#EXTM3U\n#EXT-X-TARGETDURATION:4\n#EXTINF:4,\na.ts\n#EXT-X-MEDIA-SEQUENCE:9\n#EXTINF:4,\nb.ts\n";
        let m = MediaPlaylist::parse(text).unwrap();
        assert_eq!(m.entries[0].seq, 0);
        assert_eq!(m.entries[1].seq, 1);
    }
}
