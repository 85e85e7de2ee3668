//! DPI middlebox — extracting video metadata from client requests.
//!
//! The paper's Information Collector obtains each flow's required data
//! rate from "DPI middleboxes that are part of existing cellular networks"
//! (§III-A, citing Sandvine). This module implements that middlebox for
//! the HTTP streaming protocols the paper names: it parses client request
//! bytes off the wire, classifies the flow (video vs background), and
//! extracts the declared bitrate and requested byte range.
//!
//! The wire format is the de-facto segment-request shape of HTTP video
//! players: a `GET` for a media path (`.mp4`, `.ts`, `.m4s`, …) carrying
//! the manifest-declared bitrate in an `X-Video-Bitrate-KBps` header and
//! resume offsets in a standard `Range` header. [`format_segment_request`]
//! produces exactly that shape so clients and tests can synthesize
//! traffic; [`DpiClassifier::inspect`] is byte-level and tolerant of
//! header reordering, case and stray whitespace, since middleboxes cannot
//! assume tidy clients.

use crate::receiver::FlowClass;
use bytes::Bytes;

/// What DPI learned about one request.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowInfo {
    /// Video or background traffic.
    pub class: FlowClass,
    /// Declared media bitrate, KB/s (video flows only).
    pub bitrate_kbps: Option<f64>,
    /// Requested resume offset in KB, from the `Range` header.
    pub range_start_kb: Option<f64>,
    /// The request path.
    pub path: String,
}

/// Why a request could not be inspected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpiError {
    /// Not valid UTF-8 / not HTTP-shaped.
    Malformed(&'static str),
    /// HTTP, but an unsupported method for media delivery.
    UnsupportedMethod(String),
}

impl std::fmt::Display for DpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpiError::Malformed(why) => write!(f, "malformed request: {why}"),
            DpiError::UnsupportedMethod(m) => write!(f, "unsupported method {m}"),
        }
    }
}

/// File extensions classified as video segments.
const VIDEO_EXTENSIONS: &[&str] = &[".mp4", ".m4s", ".ts", ".webm", ".m3u8", ".mpd"];

/// Build the canonical segment request a streaming client would send.
pub fn format_segment_request(
    video_id: &str,
    segment: u64,
    bitrate_kbps: f64,
    range_start_kb: Option<f64>,
) -> Bytes {
    let mut req = format!(
        "GET /videos/{video_id}/seg{segment}.m4s HTTP/1.1\r\n\
         Host: cdn.example.net\r\n\
         X-Video-Bitrate-KBps: {bitrate_kbps}\r\n\
         User-Agent: jmso-player/1.0\r\n"
    );
    if let Some(kb) = range_start_kb {
        let bytes = (kb * 1024.0) as u64;
        req.push_str(&format!("Range: bytes={bytes}-\r\n"));
    }
    req.push_str("\r\n");
    Bytes::from(req)
}

/// The DPI middlebox.
#[derive(Debug, Clone, Default)]
pub struct DpiClassifier {
    inspected: u64,
    video_flows: u64,
}

impl DpiClassifier {
    /// A fresh classifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests inspected so far.
    pub fn inspected(&self) -> u64 {
        self.inspected
    }

    /// Requests classified as video so far.
    pub fn video_flows(&self) -> u64 {
        self.video_flows
    }

    /// Inspect one request and classify the flow. Nothing is allocated
    /// but the returned [`FlowInfo::path`].
    pub fn inspect(&mut self, wire: &[u8]) -> Result<FlowInfo, DpiError> {
        self.inspected += 1;
        let text = std::str::from_utf8(wire).map_err(|_| DpiError::Malformed("not UTF-8"))?;
        let mut lines = text.split("\r\n");
        let request_line = lines.next().ok_or(DpiError::Malformed("empty request"))?;
        let mut parts = request_line.split_whitespace();
        let method = parts.next().ok_or(DpiError::Malformed("missing method"))?;
        let path = parts.next().ok_or(DpiError::Malformed("missing path"))?;
        let version = parts.next().ok_or(DpiError::Malformed("missing version"))?;
        if !version.starts_with("HTTP/") {
            return Err(DpiError::Malformed("bad HTTP version"));
        }
        if !method.eq_ignore_ascii_case("GET") {
            return Err(DpiError::UnsupportedMethod(method.to_string()));
        }

        let mut bitrate_kbps = None;
        let mut range_start_kb = None;
        for line in lines {
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue; // middleboxes skip junk they don't understand
            };
            let name = name.trim();
            if name.eq_ignore_ascii_case("x-video-bitrate-kbps") {
                bitrate_kbps = value.trim().parse::<f64>().ok().filter(|b| *b > 0.0);
            } else if name.eq_ignore_ascii_case("range") {
                // "bytes=START-" or "bytes=START-END"
                range_start_kb = value
                    .trim()
                    .strip_prefix("bytes=")
                    .and_then(|r| r.split('-').next())
                    .and_then(|s| s.trim().parse::<u64>().ok())
                    .map(|b| b as f64 / 1024.0);
            }
        }

        let looks_like_video = VIDEO_EXTENSIONS
            .iter()
            .any(|ext| ends_with_ignore_case(path, ext))
            || bitrate_kbps.is_some();
        let class = if looks_like_video {
            self.video_flows += 1;
            FlowClass::Video
        } else {
            FlowClass::Background
        };
        Ok(FlowInfo {
            class,
            bitrate_kbps: if class == FlowClass::Video {
                bitrate_kbps
            } else {
                None
            },
            range_start_kb,
            path: path.to_string(),
        })
    }
}

/// `text.to_ascii_lowercase().ends_with(suffix)` for a lower-case ASCII
/// `suffix`, without the lower-cased copy.
fn ends_with_ignore_case(text: &str, suffix: &str) -> bool {
    let (text, suffix) = (text.as_bytes(), suffix.as_bytes());
    text.len() >= suffix.len() && text[text.len() - suffix.len()..].eq_ignore_ascii_case(suffix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_segment_request() {
        let mut dpi = DpiClassifier::new();
        let wire = format_segment_request("v123", 7, 450.0, Some(2048.0));
        let info = dpi.inspect(&wire).unwrap();
        assert_eq!(info.class, FlowClass::Video);
        assert_eq!(info.bitrate_kbps, Some(450.0));
        assert_eq!(info.range_start_kb, Some(2048.0));
        assert_eq!(info.path, "/videos/v123/seg7.m4s");
        assert_eq!(dpi.inspected(), 1);
        assert_eq!(dpi.video_flows(), 1);
    }

    #[test]
    fn background_traffic_classified() {
        let mut dpi = DpiClassifier::new();
        let wire = Bytes::from(
            "GET /api/profile.json HTTP/1.1\r\nHost: app.example.net\r\n\r\n".to_string(),
        );
        let info = dpi.inspect(&wire).unwrap();
        assert_eq!(info.class, FlowClass::Background);
        assert_eq!(info.bitrate_kbps, None);
        assert_eq!(dpi.video_flows(), 0);
    }

    #[test]
    fn video_by_extension_without_bitrate_header() {
        let mut dpi = DpiClassifier::new();
        let wire = Bytes::from("GET /movies/clip.mp4 HTTP/1.1\r\n\r\n".to_string());
        let info = dpi.inspect(&wire).unwrap();
        assert_eq!(info.class, FlowClass::Video);
        assert_eq!(info.bitrate_kbps, None, "no declared rate to extract");
    }

    #[test]
    fn video_extension_matches_in_any_case() {
        let mut dpi = DpiClassifier::new();
        for (path, class) in [
            ("/movies/CLIP.Mp4", FlowClass::Video),
            ("/live/Index.M3U8", FlowClass::Video),
            ("/a.TS", FlowClass::Video),
            ("/ts", FlowClass::Background),
            ("/clip.mp4x", FlowClass::Background),
            ("/é.MPD", FlowClass::Video),
            ("/é", FlowClass::Background),
        ] {
            let wire = format!("GET {path} HTTP/1.1\r\n\r\n");
            let info = dpi.inspect(wire.as_bytes()).unwrap();
            assert_eq!(info.class, class, "{path}");
            assert_eq!(info.path, path);
        }
    }

    /// A header name is trimmed as `str::trim` trims, Unicode spaces
    /// included, before it is matched.
    #[test]
    fn header_names_are_trimmed_before_matching() {
        let mut dpi = DpiClassifier::new();
        let wire = "GET /v/a HTTP/1.1\r\n\u{a0}Range : bytes=2048-\r\n\t x-Video-Bitrate-KBps\u{2003}: 7\r\n\r\n";
        let info = dpi.inspect(wire.as_bytes()).unwrap();
        assert_eq!(info.range_start_kb, Some(2.0));
        assert_eq!(info.bitrate_kbps, Some(7.0));
    }

    #[test]
    fn header_case_and_ordering_tolerated() {
        let mut dpi = DpiClassifier::new();
        let wire = Bytes::from(
            "GET /v/a.ts HTTP/1.1\r\n\
             RANGE: bytes=1024-\r\n\
             x-video-bitrate-kbps:  600 \r\n\
             Weird-Header without colon is skipped\r\n\r\n"
                .to_string(),
        );
        let info = dpi.inspect(&wire).unwrap();
        assert_eq!(info.bitrate_kbps, Some(600.0));
        assert_eq!(info.range_start_kb, Some(1.0));
    }

    #[test]
    fn malformed_requests_rejected() {
        let mut dpi = DpiClassifier::new();
        assert_eq!(
            dpi.inspect(&Bytes::from_static(b"\xff\xfe garbage")),
            Err(DpiError::Malformed("not UTF-8"))
        );
        assert!(matches!(
            dpi.inspect(&Bytes::from("POST /upload HTTP/1.1\r\n\r\n".to_string())),
            Err(DpiError::UnsupportedMethod(_))
        ));
        assert!(matches!(
            dpi.inspect(&Bytes::from("GET /x NOTHTTP\r\n\r\n".to_string())),
            Err(DpiError::Malformed(_))
        ));
        assert_eq!(dpi.inspected(), 3, "errors still count as inspections");
    }

    #[test]
    fn negative_or_zero_bitrate_ignored() {
        let mut dpi = DpiClassifier::new();
        let wire =
            Bytes::from("GET /v/a.m4s HTTP/1.1\r\nX-Video-Bitrate-KBps: -5\r\n\r\n".to_string());
        let info = dpi.inspect(&wire).unwrap();
        assert_eq!(info.bitrate_kbps, None);
        assert_eq!(info.class, FlowClass::Video, "extension still classifies");
    }

    #[test]
    fn error_display() {
        assert_eq!(DpiError::Malformed("x").to_string(), "malformed request: x");
        assert_eq!(
            DpiError::UnsupportedMethod("PUT".into()).to_string(),
            "unsupported method PUT"
        );
    }
}
