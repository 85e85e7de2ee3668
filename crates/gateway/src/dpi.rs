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
        let scan = scan(text)?;
        let class = if scan.is_video() {
            self.video_flows += 1;
            FlowClass::Video
        } else {
            FlowClass::Background
        };
        Ok(FlowInfo {
            class,
            bitrate_kbps: scan.bitrate_kbps,
            range_start_kb: scan.range_start_kb,
            path: scan.path.to_string(),
        })
    }
}

/// The declared bitrate (KB/s) of a request already known to be text, as
/// [`DpiClassifier::inspect`] reads it: `None` when it declares none (a
/// flow with a bitrate is video, whatever its path). Allocates nothing
/// unless the request is refused.
pub(crate) fn declared_bitrate(request: &str) -> Result<Option<f64>, DpiError> {
    scan(request).map(|scan| scan.bitrate_kbps)
}

/// What one pass over a request found; the path lies in the request.
struct Scan<'t> {
    path: &'t str,
    bitrate_kbps: Option<f64>,
    range_start_kb: Option<f64>,
}

impl Scan<'_> {
    fn is_video(&self) -> bool {
        self.bitrate_kbps.is_some()
            || VIDEO_EXTENSIONS
                .iter()
                .any(|ext| ends_with_ignore_case(self.path, ext))
    }
}

/// Read a request front to back, once. Lines end at `\r\n` (a lone `\r`
/// or `\n` is part of its line); the request line is split into words
/// at whitespace runs, as `str::split_whitespace` splits; a header line
/// is split at its first `:`, and name and value are trimmed as
/// `str::trim` trims (a value only when its name is one DPI reads).
/// Headers stop at the first empty line, a line without a `:` is
/// skipped, and a repeated header's last value wins.
fn scan(text: &str) -> Result<Scan<'_>, DpiError> {
    let (request_line, _, mut next) = line(text, 0);
    let mut at = 0;
    let mut word = || next_word(request_line, &mut at);
    let method = word().ok_or(DpiError::Malformed("missing method"))?;
    let path = word().ok_or(DpiError::Malformed("missing path"))?;
    let version = word().ok_or(DpiError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/") {
        return Err(DpiError::Malformed("bad HTTP version"));
    }
    if !method.eq_ignore_ascii_case("GET") {
        return Err(DpiError::UnsupportedMethod(method.to_string()));
    }

    let mut bitrate_kbps = None;
    let mut range_start_kb = None;
    while let Some(start) = next {
        let (header, colon, after) = line(text, start);
        next = after;
        if header.is_empty() {
            break;
        }
        // Middleboxes skip junk they don't understand.
        let Some(colon) = colon else { continue };
        let name = trim(&header[..colon]);
        let value = || trim(&header[colon + 1..]);
        if name.eq_ignore_ascii_case("x-video-bitrate-kbps") {
            // `inf` and `1e999` parse, to an infinity: no bitrate either.
            bitrate_kbps = value()
                .parse::<f64>()
                .ok()
                .filter(|b| *b > 0.0 && b.is_finite());
        } else if name.eq_ignore_ascii_case("range") {
            // "bytes=START-" or "bytes=START-END"
            range_start_kb = value()
                .strip_prefix("bytes=")
                .map(|r| r.split_once('-').map_or(r, |(start, _)| start))
                .and_then(|s| trim(s).parse::<u64>().ok())
                .map(|b| b as f64 / 1024.0);
        }
    }
    Ok(Scan {
        path,
        bitrate_kbps,
        range_start_kb,
    })
}

/// The line of `text` that starts at `start`: the line without its
/// `\r\n`, the offset of its first `:`, and where the next line starts
/// (`None` after the last).
fn line(text: &str, start: usize) -> (&str, Option<usize>, Option<usize>) {
    let bytes = text.as_bytes();
    let mut at = start;
    let (end, next) = loop {
        at = find_cr(bytes, at);
        match bytes.get(at + 1) {
            _ if at == bytes.len() => break (at, None),
            Some(b'\n') => break (at, Some(at + 2)),
            _ => at += 1,
        }
    };
    let line = &text[start..end];
    (line, line.bytes().position(|b| b == b':'), next)
}

/// The first `\r` at or after `from`, or the end of `bytes`. Eight bytes
/// at a time: a request is mostly runs between line ends.
fn find_cr(bytes: &[u8], from: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut chunks = bytes[from..].chunks_exact(8);
    let mut at = from;
    for chunk in &mut chunks {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        // The high bit of each `\r` byte (exact up to the lowest one,
        // which is all that is read).
        let w = u64::from_le_bytes(word) ^ (ONES * u64::from(b'\r'));
        let hits = w.wrapping_sub(ONES) & !w & HIGH;
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let tail = chunks.remainder();
    tail.iter()
        .position(|&b| b == b'\r')
        .map_or(bytes.len(), |i| at + i)
}

/// The next word of `line` at or after `*at`, which moves past it: words
/// are the runs between whitespace, as `str::split_whitespace` has them.
fn next_word<'t>(line: &'t str, at: &mut usize) -> Option<&'t str> {
    let start = skip(line, *at, true);
    *at = skip(line, start, false);
    (start < *at).then(|| &line[start..*at])
}

/// The first character boundary at or after `at` whose character is not
/// whitespace if `space`, or is whitespace if not. Whitespace is
/// `char::is_whitespace`: ASCII's `\t \n \x0B \x0C \r` and space, and
/// Unicode's (U+0085, U+00A0, U+2003, …), decoded only when a byte is
/// not ASCII.
fn skip(text: &str, mut at: usize, space: bool) -> usize {
    let bytes = text.as_bytes();
    loop {
        // The common case, a byte at a time: a space between words,
        // printable ASCII within one.
        while let Some(&b) = bytes.get(at) {
            match space {
                true if b == b' ' => at += 1,
                false if (0x21..0x7f).contains(&b) => at += 1,
                _ => break,
            }
        }
        let Some(&b) = bytes.get(at) else { return at };
        let (is_space, len) = if b.is_ascii() {
            let ws = matches!(b, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ');
            (ws, 1)
        } else {
            match text.get(at..).and_then(|rest| rest.chars().next()) {
                Some(c) => (c.is_whitespace(), c.len_utf8()),
                None => return at,
            }
        };
        if is_space != space {
            return at;
        }
        at += len;
    }
}

/// `s.trim()`, with nothing to decode when both ends are printable ASCII.
fn trim(s: &str) -> &str {
    let plain = |b: Option<&u8>| b.is_some_and(|b| (0x21..0x7f).contains(b));
    match plain(s.as_bytes().first()) && plain(s.as_bytes().last()) {
        true => s,
        false => s.trim(),
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

    /// `inf`, `1e999` and `nan` parse as floats but declare no bitrate:
    /// the flow is classified by its path alone.
    #[test]
    fn a_non_finite_bitrate_is_no_bitrate() {
        let mut dpi = DpiClassifier::new();
        for value in ["inf", "+Infinity", "1e999", "NaN", "-inf"] {
            for (path, class) in [
                ("/v/a.m4s", FlowClass::Video),
                ("/api", FlowClass::Background),
            ] {
                let wire = format!("GET {path} HTTP/1.1\r\nX-Video-Bitrate-KBps: {value}\r\n\r\n");
                let info = dpi.inspect(wire.as_bytes()).unwrap();
                assert_eq!((info.class, info.bitrate_kbps), (class, None), "{value}");
                assert_eq!(declared_bitrate(&wire), Ok(None), "{value}");
            }
        }
    }

    /// The split-based reader the one-pass scanner replaced, kept as its
    /// oracle, with one change: a non-finite bitrate is no bitrate.
    fn split_inspect(wire: &[u8]) -> Result<FlowInfo, DpiError> {
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
                continue;
            };
            let name = name.trim();
            if name.eq_ignore_ascii_case("x-video-bitrate-kbps") {
                bitrate_kbps = value
                    .trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|b| *b > 0.0 && b.is_finite());
            } else if name.eq_ignore_ascii_case("range") {
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

    /// xorshift64, so a failing case replays.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n.max(1) as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// A byte offset of `bytes` that starts a UTF-8 character (or any
    /// offset once `bytes` holds invalid UTF-8).
    fn boundary(bytes: &[u8], rng: &mut Rng) -> usize {
        let mut at = rng.below(bytes.len() + 1);
        while at > 0 && at < bytes.len() && (bytes[at] & 0xC0) == 0x80 {
            at -= 1;
        }
        at
    }

    /// One mutation of a request, of the kinds a middlebox meets.
    fn mutate(wire: &mut Vec<u8>, rng: &mut Rng) {
        const SPACE: &[&str] = &[
            " ", "\t", "\x0B", "\x0C", "\u{a0}", "\u{2003}", "\u{85}", "\u{3000}", "\n", "\r",
        ];
        const BITRATE: &[&str] = &[
            "450", " 600 ", "-5", "0", "abc", "inf", "1e999", "nan", "+7", ".5", "3e2", "", "1_0",
        ];
        const RANGE: &[&str] = &[
            "bytes=2048-",
            "bytes=100-200",
            "bytes= 5 -",
            "bytes=-5",
            "bytes=abc-",
            "items=5-",
            "bytes=+7-",
            "BYTES=1-",
            "bytes=18446744073709551616-",
            "bytes=7",
        ];
        const METHOD: &[&str] = &["GET", "get", "Get", "POST", "HEAD", "", "G\u{e9}T"];
        const VERSION: &[&str] = &["HTTP/1.1", "HTTP/2", "http/1.1", "HTTX/1.1", "", "HTTP/"];
        const NAMES: &[&str] = &["X-Video-Bitrate-KBps", "Range", "Host", "User-Agent"];
        let insert = |wire: &mut Vec<u8>, at: usize, text: &[u8]| {
            wire.splice(at..at, text.iter().copied());
        };
        let find =
            |wire: &[u8], needle: &[u8]| wire.windows(needle.len()).position(|w| w == needle);
        match rng.below(10) {
            // Header case.
            0 => {
                for b in wire.iter_mut().filter(|b| b.is_ascii_alphabetic()) {
                    if rng.below(3) == 0 {
                        *b ^= 0x20;
                    }
                }
            }
            // Whitespace around a name or a value.
            1 => {
                let colons: Vec<usize> = (0..wire.len()).filter(|&i| wire[i] == b':').collect();
                if let Some(&c) = colons.get(rng.below(colons.len())) {
                    let at = [c, c + 1][rng.below(2)];
                    let at = if rng.below(3) == 0 {
                        wire[..c]
                            .windows(2)
                            .rposition(|w| w == b"\r\n")
                            .map_or(0, |i| i + 2)
                    } else {
                        at
                    };
                    insert(wire, at, rng.pick(SPACE).as_bytes());
                }
            }
            // Whitespace, or a lone `\r`, anywhere.
            2 => {
                let at = boundary(wire, rng);
                let text = if rng.below(2) == 0 {
                    "\r"
                } else {
                    rng.pick(SPACE)
                };
                insert(wire, at, text.as_bytes());
            }
            // A repeated bitrate header: the last one wins.
            3 => {
                let at = find(wire, b"\r\n").map_or(wire.len(), |i| i + 2);
                let header = format!("{}: {}\r\n", rng.pick(NAMES), rng.pick(BITRATE));
                let at = [at, find(wire, b"\r\n\r\n").map_or(at, |i| i + 2)][rng.below(2)];
                insert(wire, at, header.as_bytes());
            }
            // A header after the blank line.
            4 => {
                let header = format!(
                    "X-Video-Bitrate-KBps: {}\r\nRange: bytes=4096-\r\n",
                    rng.pick(BITRATE)
                );
                wire.extend_from_slice(header.as_bytes());
            }
            // A line without a colon.
            5 => {
                let at = find(wire, b"\r\n").map_or(wire.len(), |i| i + 2);
                insert(wire, at, b"Weird header without colon\r\n");
            }
            // Bytes that are not UTF-8.
            6 => {
                let at = rng.below(wire.len() + 1);
                insert(
                    wire,
                    at,
                    [&b"\xff"[..], b"\xc3", b"\xe2\x80", b"\x80"][rng.below(4)],
                );
            }
            // Methods and versions.
            7 => {
                let line_end = find(wire, b"\r\n").unwrap_or(wire.len());
                let line = String::from_utf8_lossy(&wire[..line_end]).into_owned();
                let mut words: Vec<&str> = line.split(' ').collect();
                let which = rng.below(words.len().max(1));
                if which == 0 {
                    words[0] = rng.pick(METHOD);
                } else if which == words.len() - 1 {
                    words[which] = rng.pick(VERSION);
                } else if rng.below(2) == 0 {
                    words.remove(which);
                } else {
                    words.push("extra");
                }
                wire.splice(..line_end, words.join(" ").into_bytes());
            }
            // `Range` variants.
            8 => {
                let at = find(wire, b"\r\n").map_or(wire.len(), |i| i + 2);
                let header = format!("Range:{}\r\n", rng.pick(RANGE));
                insert(wire, at, header.as_bytes());
            }
            // A cut.
            _ => wire.truncate(boundary(wire, rng)),
        }
    }

    /// The one-pass scanner reads what the split-based reader read:
    /// `inspect`'s `FlowInfo` or error, its counters, and
    /// `declared_bitrate`, over a seeded corpus of mutated segment
    /// requests.
    #[test]
    fn the_scanner_reads_what_the_split_reader_read() {
        let mut rng = Rng(0x00d9_15ca_2024_0001);
        let mut dpi = DpiClassifier::new();
        let (mut video, mut refused, mut rated, mut ranged) = (0, 0, 0, 0);
        let kinds = ["video", "CLIP", "\u{e9}t\u{e9}"];
        for case in 0..20_000u64 {
            let range = [None, Some(2048.0), Some(0.5)][rng.below(3)];
            let kbps = [450.0, 312.5, 1e-3, 7.0][rng.below(4)];
            let mut wire = format_segment_request(kinds[rng.below(3)], case, kbps, range).to_vec();
            for _ in 0..=rng.below(4) {
                mutate(&mut wire, &mut rng);
            }
            let want = split_inspect(&wire);
            let got = dpi.inspect(&wire);
            assert_eq!(got, want, "{:?}", String::from_utf8_lossy(&wire));
            if let Ok(text) = std::str::from_utf8(&wire) {
                let rate = want.as_ref().map(|info| info.bitrate_kbps);
                assert_eq!(
                    declared_bitrate(text),
                    rate.map_err(Clone::clone),
                    "{text:?}"
                );
            }
            video += u64::from(matches!(
                want,
                Ok(FlowInfo {
                    class: FlowClass::Video,
                    ..
                })
            ));
            refused += u64::from(want.is_err());
            if let Ok(info) = &want {
                rated += u64::from(info.bitrate_kbps.is_some());
                ranged += u64::from(info.range_start_kb.is_some());
            }
        }
        assert_eq!((dpi.inspected(), dpi.video_flows()), (20_000, video));
        let read = format!("{refused} refused, {video} video, {rated} rated, {ranged} ranged");
        assert!(
            refused > 2_000 && video > 5_000 && rated > 4_000 && ranged > 2_000,
            "{read}"
        );
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
