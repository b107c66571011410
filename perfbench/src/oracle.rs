//! The benchmark's own oracles. None of them calls into the program: the
//! checks compare the program's outputs against these computations.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Share of `truth` that also appears in `got` (1.0 for an empty truth).
pub fn recall<T: Hash + Eq>(truth: &[T], got: &[T]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let got: HashSet<&T> = got.iter().collect();
    let hit = truth.iter().filter(|t| got.contains(t)).count();
    hit as f64 / truth.len() as f64
}

/// Size of the intersection of two sets given as slices (duplicates count
/// once).
pub fn intersection<T: Hash + Eq>(a: &[T], b: &[T]) -> usize {
    let a: HashSet<&T> = a.iter().collect();
    let b: HashSet<&T> = b.iter().collect();
    a.intersection(&b).count()
}

/// Jaccard index |A ∩ B| / |A ∪ B| of two sets given as slices; two empty
/// sets are identical (1.0).
pub fn jaccard<T: Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

/// The first duplicated item of `items`, if any.
pub fn first_duplicate<'a, T: Hash + Eq>(items: impl IntoIterator<Item = &'a T>) -> Option<&'a T> {
    let mut seen = HashSet::new();
    items.into_iter().find(|&x| !seen.insert(x))
}

/// 0-based position of every id in a best-first list.
pub struct PositionMap(HashMap<u32, u32>);

impl PositionMap {
    pub fn new(ids: impl IntoIterator<Item = u32>) -> Self {
        let mut map = HashMap::new();
        for (pos, id) in ids.into_iter().enumerate() {
            map.entry(id).or_insert(pos as u32);
        }
        PositionMap(map)
    }

    pub fn position(&self, id: u32) -> Option<u32> {
        self.0.get(&id).copied()
    }
}

/// A parsed JSON value; numbers keep their source text so integer and
/// float fields compare exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &[u8]) -> bool {
        if self.s[self.i..].starts_with(lit) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end".to_owned()),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat(b"true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat(b"false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat(b"null") => Ok(Json::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(self.s[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    self.i += 1;
                }
                let raw = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                raw.parse::<f64>().map_err(|_| format!("bad number `{raw}`"))?;
                Ok(Json::Num(raw.to_owned()))
            }
            Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, self.i)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // opening quote
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat(b"]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            if self.eat(b"]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b",") {
                return Err(format!("expected , or ] at {}", self.i));
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.i += 1;
        let mut members = Vec::new();
        self.ws();
        if self.eat(b"}") {
            return Ok(Json::Obj(members));
        }
        loop {
            self.ws();
            if self.s.get(self.i) != Some(&b'"') {
                return Err(format!("expected key at {}", self.i));
            }
            let key = self.string()?;
            self.ws();
            if !self.eat(b":") {
                return Err(format!("expected : at {}", self.i));
            }
            members.push((key, self.value()?));
            self.ws();
            if self.eat(b"}") {
                return Ok(Json::Obj(members));
            }
            if !self.eat(b",") {
                return Err(format!("expected , or }} at {}", self.i));
            }
        }
    }
}

/// Checks that `body`'s field `key` holds exactly `want` (compared as
/// parsed JSON); the error names the field and both values.
pub fn expect_field(body: &Json, key: &str, want: &Json) -> Result<(), String> {
    match body.get(key) {
        Some(got) if got == want => Ok(()),
        Some(got) => Err(format!("field `{key}`: served {got:?}, expected {want:?}")),
        None => Err(format!("field `{key}` missing")),
    }
}

/// A JSON number for an integer.
pub fn num(n: u64) -> Json {
    Json::Num(n.to_string())
}

/// A JSON number or `null` for an optional integer.
pub fn opt_num(n: Option<u64>) -> Json {
    n.map_or(Json::Null, num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_on_hand_made_sets() {
        assert_eq!(recall(&[1, 2, 3, 4], &[4, 3, 9, 8]), 0.5);
        assert_eq!(recall::<u32>(&[], &[1]), 1.0);
        assert_eq!(recall(&["a", "b"], &["c"]), 0.0);
    }

    #[test]
    fn jaccard_and_intersection_on_hand_made_sets() {
        assert_eq!(jaccard(&[1, 2, 3], &[2, 3, 4]), 0.5);
        assert_eq!(intersection(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(jaccard::<u8>(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1], &[2]), 0.0);
        // Duplicates count once, as in a set.
        assert_eq!(jaccard(&[1, 1, 2], &[2, 2]), 0.5);
        // A deliberately wrong answer is told apart from the right one.
        assert_ne!(jaccard(&[1, 2, 3], &[2, 3, 4]), 2.0 / 3.0);
    }

    #[test]
    fn duplicates_are_found() {
        assert_eq!(first_duplicate(&["a", "b", "a"]), Some(&"a"));
        assert_eq!(first_duplicate(&["a", "b"]), None);
    }

    #[test]
    fn positions_are_zero_based_first_occurrence() {
        let m = PositionMap::new([7, 3, 9]);
        assert_eq!(m.position(7), Some(0));
        assert_eq!(m.position(9), Some(2));
        assert_eq!(m.position(4), None);
    }

    #[test]
    fn parses_served_bodies() {
        let body = r#"{"snapshot":"tpls-v1-x-g3","list":"tranco","present":true,"rank":17,
            "monthly":{"alexa":1,"crux":null},"alexa_daily":[1,null,3],"jaccard":0.25,
            "esc":"a\"bA"}"#;
        let j = Json::parse(body).unwrap();
        assert_eq!(j.get("rank").unwrap().as_u64(), Some(17));
        assert_eq!(j.get("present"), Some(&Json::Bool(true)));
        assert_eq!(j.get("jaccard").unwrap().as_f64(), Some(0.25));
        assert_eq!(j.get("esc").unwrap().as_str(), Some("a\"bA"));
        let monthly = j.get("monthly").unwrap();
        assert_eq!(monthly.get("crux"), Some(&Json::Null));
        assert_eq!(monthly.get("alexa"), Some(&num(1)));
        let Json::Arr(days) = j.get("alexa_daily").unwrap() else {
            panic!("not an array")
        };
        assert_eq!(days.len(), 3);
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
    }

    #[test]
    fn a_wrong_served_field_is_rejected() {
        let body = Json::parse(r#"{"rank":17,"present":true}"#).unwrap();
        assert!(expect_field(&body, "rank", &num(17)).is_ok());
        let err = expect_field(&body, "rank", &num(18)).unwrap_err();
        assert!(err.contains("rank"), "{err}");
        assert!(expect_field(&body, "bucket", &num(17)).is_err());
        assert!(expect_field(&body, "present", &Json::Bool(false)).is_err());
    }
}
