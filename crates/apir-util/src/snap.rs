//! The snapshot codec: one trait that moves a value to and from [`Json`].
//!
//! Checkpointed state is written once per type. A type lists the fields
//! it saves in [`snap_fields!`](crate::snap_fields) and marks the rest
//! `skip`; the macro emits both [`Snap::save`] and [`Snap::load`] from
//! that one list and destructures the struct exhaustively, so a field
//! added later fails to compile until it is listed or skipped.
//!
//! [`Snap::load`] overwrites a value that already exists. The receiver is
//! built from configuration first, so everything structural (capacities,
//! latencies, fixed lengths) comes from it rather than from the document.
//! The shapes:
//!
//! * integers load through checked conversions, never truncating;
//! * `f64` is saved as its raw IEEE-754 bits, so a round trip is exact;
//! * `Option` saves `None` as `null`, and a value loaded into `None`
//!   starts from `T::default()`;
//! * `Vec`, `VecDeque`, `BTreeSet` and `BTreeMap` are growable arrays (a
//!   map is an array of `[key, value]` pairs in key order);
//! * slices and arrays have a structural length and reject a document of
//!   any other length;
//! * a `Box` is encoded as the value it holds, so a boxed slice is a
//!   structural length too;
//! * tuples are positional arrays.
//!
//! An object loads only from a document that holds each of its members
//! once and nothing else ([`only`]), so a stale or misspelled member is an
//! error rather than a silent skip. Load errors carry the path of the
//! member that failed, innermost last (`.mem.requests.v[0].r: ...`);
//! [`describe`] renders one for people.

use crate::json::Json;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Display;

/// A value with a snapshot encoding.
pub trait Snap {
    /// Encodes the value.
    fn save(&self) -> Json;

    /// Overwrites the value from `j`, keeping its structure.
    ///
    /// # Errors
    ///
    /// A message that starts with the path of the offending member when
    /// `j` has the wrong shape or does not fit the receiver's structure.
    fn load(&mut self, j: &Json) -> Result<(), String>;
}

/// Prefixes a load error with the member it was raised under: `seg` is
/// `.key` or `[index]`.
pub fn nest(seg: impl Display, e: String) -> String {
    if e.starts_with(['.', '[']) {
        format!("{seg}{e}")
    } else {
        format!("{seg}: {e}")
    }
}

/// Renders a load error for people: `.mem.requests.v[0].r: region 99`
/// becomes ``snapshot: `mem.requests.v[0].r`: region 99``.
pub fn describe(e: &str) -> String {
    match e.split_once(": ") {
        Some((path, msg)) if path.starts_with(['.', '[']) => {
            format!("snapshot: `{}`: {msg}", path.trim_start_matches('.'))
        }
        _ => format!("snapshot: {e}"),
    }
}

/// Names a JSON value's type for error messages.
pub fn kind(j: &Json) -> &'static str {
    match j {
        Json::Null => "null",
        Json::Bool(_) => "a bool",
        Json::Num(_) | Json::U64(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    }
}

/// The elements of an array value.
pub fn items(j: &Json) -> Result<&[Json], String> {
    j.as_arr()
        .ok_or_else(|| format!("expected an array, found {}", kind(j)))
}

/// The elements of an array value that must have exactly `n` of them.
pub fn items_n(j: &Json, n: usize) -> Result<&[Json], String> {
    let v = items(j)?;
    if v.len() != n {
        return Err(format!("expected {n} elements, found {}", v.len()));
    }
    Ok(v)
}

/// Member `key` of object `j`.
pub fn member<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    match j {
        Json::Obj(_) => j.get(key).ok_or_else(|| format!(".{key}: missing")),
        _ => Err(format!("expected an object, found {}", kind(j))),
    }
}

/// Loads member `key` of object `j` into `v`.
pub fn load_key<T: Snap + ?Sized>(v: &mut T, j: &Json, key: &str) -> Result<(), String> {
    v.load(member(j, key)?)
        .map_err(|e| nest(format_args!(".{key}"), e))
}

/// Checks that object `j`, whose `listed` members have all loaded, holds
/// no other member than the `also` members another reader takes, and no
/// member twice. An object of exactly `listed.len()` members is then the
/// listed set, so only a longer one is searched, and the search stops
/// within `listed.len() + also.len() + 1` members.
pub fn only(j: &Json, listed: &[&str], also: &[&str]) -> Result<(), String> {
    let Json::Obj(members) = j else {
        return Ok(());
    };
    if members.len() == listed.len() {
        return Ok(());
    }
    for (i, (k, _)) in members.iter().enumerate() {
        if !listed.contains(&k.as_str()) && !also.contains(&k.as_str()) {
            return Err(format!(".{k}: not a member of this snapshot"));
        }
        if members[..i].iter().any(|(seen, _)| seen == k) {
            return Err(format!(".{k}: appears twice"));
        }
    }
    Ok(())
}

/// Loads element `i` of array `a` into `v`.
pub fn load_at<T: Snap + ?Sized>(v: &mut T, a: &[Json], i: usize) -> Result<(), String> {
    v.load(&a[i]).map_err(|e| nest(format_args!("[{i}]"), e))
}

/// Decodes every element of an array into fresh values.
fn collect<T: Snap + Default, C: FromIterator<T>>(j: &Json) -> Result<C, String> {
    items(j)?
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut v = T::default();
            v.load(e).map_err(|e| nest(format_args!("[{i}]"), e))?;
            Ok(v)
        })
        .collect()
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn save(&self) -> Json {
                Json::U64(*self as u64)
            }

            fn load(&mut self, j: &Json) -> Result<(), String> {
                let v = j
                    .as_u64()
                    .ok_or_else(|| format!("expected an unsigned integer, found {}", kind(j)))?;
                *self = <$t>::try_from(v)
                    .map_err(|_| format!("{v} does not fit in {}", stringify!($t)))?;
                Ok(())
            }
        }
    )*};
}
unsigned!(u8, u32, u64, usize);

impl Snap for bool {
    fn save(&self) -> Json {
        Json::Bool(*self)
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        *self = j
            .as_bool()
            .ok_or_else(|| format!("expected a bool, found {}", kind(j)))?;
        Ok(())
    }
}

impl Snap for f64 {
    fn save(&self) -> Json {
        Json::U64(self.to_bits())
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        let mut bits = 0u64;
        bits.load(j)?;
        *self = f64::from_bits(bits);
        Ok(())
    }
}

impl<T: Snap + Default> Snap for Option<T> {
    fn save(&self) -> Json {
        self.as_ref().map_or(Json::Null, Snap::save)
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        match (self.as_mut(), j) {
            (_, Json::Null) => *self = None,
            (Some(v), _) => v.load(j)?,
            (None, _) => {
                let mut v = T::default();
                v.load(j)?;
                *self = Some(v);
            }
        }
        Ok(())
    }
}

impl<T: Snap> Snap for [T] {
    fn save(&self) -> Json {
        Json::Arr(self.iter().map(Snap::save).collect())
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        let a = items_n(j, self.len())?;
        for (i, v) in self.iter_mut().enumerate() {
            load_at(v, a, i)?;
        }
        Ok(())
    }
}

/// An array delegates to the slice.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self) -> Json {
        self[..].save()
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        self[..].load(j)
    }
}

/// A box delegates to what it holds, so boxing a value moves no byte.
impl<T: Snap + ?Sized> Snap for Box<T> {
    fn save(&self) -> Json {
        (**self).save()
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        (**self).load(j)
    }
}

/// Growable collections rebuild themselves from the document.
macro_rules! growable {
    ($($t:ident $(+ $bound:ident)?),*) => {$(
        impl<T: Snap + Default $(+ $bound)?> Snap for $t<T> {
            fn save(&self) -> Json {
                Json::Arr(self.iter().map(Snap::save).collect())
            }

            fn load(&mut self, j: &Json) -> Result<(), String> {
                *self = collect(j)?;
                Ok(())
            }
        }
    )*};
}
growable!(Vec, VecDeque, BTreeSet + Ord);

impl<K: Snap + Default + Ord, V: Snap + Default> Snap for BTreeMap<K, V> {
    fn save(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, v)| Json::Arr(vec![k.save(), v.save()]))
                .collect(),
        )
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        *self = collect::<(K, V), _>(j)?;
        Ok(())
    }
}

macro_rules! tuple {
    ($n:literal: $($t:ident $i:tt),*) => {
        impl<$($t: Snap),*> Snap for ($($t,)*) {
            fn save(&self) -> Json {
                Json::Arr(vec![$(self.$i.save()),*])
            }

            fn load(&mut self, j: &Json) -> Result<(), String> {
                let a = items_n(j, $n)?;
                $(load_at(&mut self.$i, a, $i)?;)*
                Ok(())
            }
        }
    };
}
tuple!(2: A 0, B 1);
tuple!(3: A 0, B 1, C 2);
tuple!(5: A 0, B 1, C 2, D 3, E 4);

/// Implements [`Snap`] for a struct from one list of its fields.
///
/// Every field must appear, either saved or marked `field: skip`; a
/// skipped field is structure the receiver already holds. The brackets
/// choose the encoding:
///
/// * `Name { a, b => "k", c: skip }` — an object with one member per
///   saved field, in list order, named after the field unless `=> "key"`
///   renames it. A load rejects any other member ([`only`]) but those a
///   trailing `also ["key", ...]` names, which another reader loads;
/// * `Name [a, b, c: skip]` — a positional array (stats structs);
/// * `Name (a, c: skip)` — exactly the encoding of its one saved field
///   (`Id(0)` for a newtype).
///
/// A trailing `check path` names a `fn(&Self) -> Result<(), String>`
/// that [`Snap::load`] runs after the last field, for invariants that
/// span fields; a `fn(&mut Self)` may also recompute skipped fields that
/// are derived from saved ones. Type parameters gain a `Snap + Default`
/// bound.
///
/// ```
/// use apir_util::snap::Snap;
/// use apir_util::snap_fields;
///
/// #[derive(Default)]
/// struct Meter {
///     rate: u64,
///     used: u64,
///     peak: u64,
/// }
/// snap_fields!(Meter { used, peak => "p", rate: skip });
///
/// let m = Meter { rate: 7, used: 3, peak: 5 };
/// assert_eq!(m.save().render(), r#"{"used":3,"p":5}"#);
/// let mut back = Meter { rate: 7, ..Meter::default() };
/// back.load(&m.save()).unwrap();
/// assert_eq!((back.used, back.peak), (3, 5));
/// ```
///
/// A field that is neither saved nor skipped does not compile; rustc
/// reports the macro's destructuring pattern as needing `..`:
///
/// ```compile_fail
/// use apir_util::snap_fields;
///
/// struct Meter {
///     rate: u64,
///     used: u64,
///     peak: u64,
/// }
/// snap_fields!(Meter { used, rate: skip });
/// ```
#[macro_export]
macro_rules! snap_fields {
    ($name:ident $(<$($g:ident),+>)? { $($f:tt)* } $(also [$($also:literal),*])? $(check $chk:path)?) => {
        $crate::snap_fields!(@impl [$name $(<$($g),+>)?] [$($($g),+)?] { $($f)* } [$($($also),*)?] [$($chk)?]);
    };
    ($name:ident $(<$($g:ident),+>)? [ $($f:tt)* ] $(check $chk:path)?) => {
        $crate::snap_fields!(@impl [$name $(<$($g),+>)?] [$($($g),+)?] [ $($f)* ] [] [$($chk)?]);
    };
    ($name:ident $(<$($g:ident),+>)? ( $($f:tt)* ) $(check $chk:path)?) => {
        $crate::snap_fields!(@impl [$name $(<$($g),+>)?] [$($($g),+)?] ( $($f)* ) [] [$($chk)?]);
    };
    (@impl [$ty:ty] [$($g:ident),*] $fields:tt $also:tt [$($chk:path)?]) => {
        // Skipped fields interleave with saved ones, so the bodies push
        // one saved field at a time and count them as `0 + 1 + ...`.
        #[allow(clippy::vec_init_then_push, clippy::identity_op)]
        impl<$($g: $crate::snap::Snap + Default),*> $crate::snap::Snap for $ty {
            fn save(&self) -> $crate::json::Json {
                $crate::snap_fields!(@save self $fields)
            }

            fn load(&mut self, j: &$crate::json::Json) -> Result<(), String> {
                $crate::snap_fields!(@load self j $fields $also);
                $($chk(self)?;)?
                Ok(())
            }
        }
    };
    (@save $s:ident { $($f:ident $(=> $key:literal)? $(: $skip:ident)?),* $(,)? }) => {{
        let Self { $($f),* } = $s;
        let mut members = Vec::new();
        $($crate::snap_fields!(@member members $f [$($key)?] [$($skip)?]);)*
        $crate::json::Json::Obj(members)
    }};
    (@save $s:ident [ $($f:ident $(: $skip:ident)?),* $(,)? ]) => {{
        let Self { $($f),* } = $s;
        let mut items = Vec::new();
        $($crate::snap_fields!(@item items $f [$($skip)?]);)*
        $crate::json::Json::Arr(items)
    }};
    (@save $s:ident ( $inner:tt $(, $f:ident: skip)* $(,)? )) => {{
        let Self { $inner: v, $($f: _),* } = $s;
        $crate::snap::Snap::save(v)
    }};
    (@load $s:ident $j:ident { $($f:ident $(=> $key:literal)? $(: $skip:ident)?),* $(,)? } [$($also:literal),*]) => {
        let Self { $($f),* } = $s;
        $($crate::snap_fields!(@load_member $j $f [$($key)?] [$($skip)?]);)*
        $crate::snap::only(
            $j,
            &$crate::snap_fields!(@keys [] $($f $(=> $key)? $(: $skip)?),*),
            &[$($also),*],
        )?;
    };
    (@load $s:ident $j:ident [ $($f:ident $(: $skip:ident)?),* $(,)? ] []) => {
        let Self { $($f),* } = $s;
        let n = 0 $(+ $crate::snap_fields!(@count [$($skip)?]))*;
        let a = $crate::snap::items_n($j, n)?;
        let mut i = 0;
        $($crate::snap_fields!(@load_item a i $f [$($skip)?]);)*
        let _ = i;
    };
    (@load $s:ident $j:ident ( $inner:tt $(, $f:ident: skip)* $(,)? ) []) => {
        let Self { $inner: v, $($f: _),* } = $s;
        $crate::snap::Snap::load(v, $j)?;
    };
    (@member $m:ident $f:ident [] []) => {
        $m.push((stringify!($f).to_string(), $crate::snap::Snap::save($f)))
    };
    (@member $m:ident $f:ident [$key:literal] []) => {
        $m.push(($key.to_string(), $crate::snap::Snap::save($f)))
    };
    (@load_member $j:ident $f:ident [] []) => {
        $crate::snap::load_key($f, $j, stringify!($f))?
    };
    (@load_member $j:ident $f:ident [$key:literal] []) => {
        $crate::snap::load_key($f, $j, $key)?
    };
    (@item $v:ident $f:ident []) => {
        $v.push($crate::snap::Snap::save($f))
    };
    (@load_item $a:ident $i:ident $f:ident []) => {{
        $crate::snap::load_at($f, $a, $i)?;
        $i += 1;
    }};
    // The saved fields' member keys, skipped fields left out.
    (@keys [$($k:expr),*]) => { [$($k),*] };
    (@keys [$($k:expr),*] $f:ident: skip $(, $($rest:tt)*)?) => {
        $crate::snap_fields!(@keys [$($k),*] $($($rest)*)?)
    };
    (@keys [$($k:expr),*] $f:ident => $key:literal $(, $($rest:tt)*)?) => {
        $crate::snap_fields!(@keys [$($k,)* $key] $($($rest)*)?)
    };
    (@keys [$($k:expr),*] $f:ident $(, $($rest:tt)*)?) => {
        $crate::snap_fields!(@keys [$($k,)* stringify!($f)] $($($rest)*)?)
    };
    (@count []) => { 1 };
    (@count [skip]) => { 0 };
    (@member $m:ident $f:ident [] [skip]) => { let _ = $f; };
    (@load_member $j:ident $f:ident [] [skip]) => { let _ = $f; };
    (@item $v:ident $f:ident [skip]) => { let _ = $f; };
    (@load_item $a:ident $i:ident $f:ident [skip]) => { let _ = $f; };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn round_trip<T: Snap + Default>(v: &T) -> T {
        let text = v.save().render();
        let mut back = T::default();
        back.load(&parse(&text).unwrap()).unwrap();
        back
    }

    #[test]
    fn integers_reject_truncation() {
        let mut b = 0u8;
        assert_eq!(
            b.load(&Json::U64(256)),
            Err("256 does not fit in u8".into())
        );
        let mut w = 0u32;
        assert!(w.load(&Json::U64(u64::from(u32::MAX) + 1)).is_err());
        assert!(w.load(&Json::str("7")).is_err());
        w.load(&Json::U64(7)).unwrap();
        assert_eq!(w, 7);
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [0.0f64, -0.0, 1.5, 0.1 + 0.2, f64::MIN_POSITIVE, f64::NAN] {
            assert_eq!(round_trip(&v).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn fixed_lengths_are_structural() {
        let mut a = [0u64; 3];
        assert_eq!(
            a.load(&parse("[1,2]").unwrap()),
            Err("expected 3 elements, found 2".into())
        );
        let mut b: Box<[u64]> = vec![0; 2].into();
        b.load(&parse("[4,5]").unwrap()).unwrap();
        assert_eq!(&b[..], &[4, 5]);
        let mut v = vec![9u64];
        v.load(&parse("[1,2,3]").unwrap()).unwrap();
        assert_eq!(v, [1, 2, 3], "a Vec grows");
    }

    #[test]
    fn a_box_encodes_as_what_it_holds() {
        let t = (7u64, [1u32, 2]);
        let boxed = Box::new(t);
        assert_eq!(boxed.save().render(), t.save().render());
        assert_eq!(*round_trip(&boxed), t);
        let some: Option<Box<(u64, [u32; 2])>> = Some(boxed);
        assert_eq!(some.save().render(), Some(t).save().render());
        assert_eq!(round_trip(&some), some);
        let none: Option<Box<u64>> = None;
        assert_eq!(none.save().render(), "null");
        assert_eq!(round_trip(&none), None);
        // A boxed slice keeps its structural length.
        let mut b: Box<[u64]> = vec![0; 2].into();
        assert_eq!(
            b.load(&parse("[1,2,3]").unwrap()),
            Err("expected 2 elements, found 3".into())
        );
        assert_eq!(b.save().render(), [0u64, 0].save().render());
    }

    #[test]
    fn options_maps_and_tuples() {
        let o: Option<(u64, bool)> = Some((3, true));
        assert_eq!(o.save().render(), "[3,true]");
        assert_eq!(round_trip(&o), o);
        assert_eq!(round_trip(&None::<u64>), None);
        let m: BTreeMap<u64, bool> = [(9, false), (2, true)].into();
        assert_eq!(m.save().render(), "[[2,true],[9,false]]");
        assert_eq!(round_trip(&m), m);
        let d: VecDeque<(u64, u64, u64)> = [(1, 2, 3)].into();
        assert_eq!(round_trip(&d), d);
    }

    #[derive(Default)]
    struct Inner {
        a: u64,
        b: [u32; 2],
    }
    snap_fields!(Inner [a, b]);

    #[derive(Default)]
    struct Outer {
        cap: usize,
        name: Inner,
        items: Vec<u64>,
    }
    snap_fields!(Outer { items => "i", name => "n", cap: skip } check Outer::fits);

    impl Outer {
        fn fits(&self) -> Result<(), String> {
            if self.items.len() > self.cap {
                return Err(format!(
                    ".i: {} items exceed capacity {}",
                    self.items.len(),
                    self.cap
                ));
            }
            Ok(())
        }
    }

    struct Wrapped {
        inner: Vec<u64>,
        width: usize,
    }
    snap_fields!(Wrapped(inner, width: skip));

    #[test]
    fn the_macro_encodes_objects_arrays_and_wrappers() {
        let o = Outer {
            cap: 2,
            name: Inner { a: 1, b: [2, 3] },
            items: vec![4],
        };
        assert_eq!(o.save().render(), r#"{"i":[4],"n":[1,[2,3]]}"#);
        let mut back = Outer {
            cap: 2,
            ..Outer::default()
        };
        back.load(&o.save()).unwrap();
        assert_eq!((back.name.a, back.name.b, back.items), (1, [2, 3], vec![4]));
        let mut w = Wrapped {
            inner: vec![1, 2],
            width: 2,
        };
        assert_eq!(w.save().render(), "[1,2]");
        w.load(&parse("[7]").unwrap()).unwrap();
        assert_eq!((w.inner, w.width), (vec![7], 2));
    }

    #[test]
    fn errors_name_the_member() {
        let mut o = Outer {
            cap: 1,
            ..Outer::default()
        };
        let bad = parse(r#"{"i":[1],"n":[1,[2,"x"]]}"#).unwrap();
        let e = o.load(&bad).unwrap_err();
        assert_eq!(e, ".n[1][1]: expected an unsigned integer, found a string");
        assert_eq!(
            describe(&e),
            "snapshot: `n[1][1]`: expected an unsigned integer, found a string"
        );
        let over = parse(r#"{"i":[1,2],"n":[1,[2,3]]}"#).unwrap();
        assert_eq!(o.load(&over).unwrap_err(), ".i: 2 items exceed capacity 1");
        let missing = parse(r#"{"n":[1,[2,3]]}"#).unwrap();
        assert_eq!(o.load(&missing).unwrap_err(), ".i: missing");
        assert_eq!(
            o.load(&parse("[]").unwrap()).unwrap_err(),
            "expected an object, found an array"
        );
        assert_eq!(describe("bad"), "snapshot: bad");
    }

    #[derive(Default)]
    struct Tagged {
        n: u64,
    }
    snap_fields!(Tagged { n } also ["tag"]);

    #[test]
    fn members_the_load_does_not_list_are_rejected() {
        let mut o = Outer {
            cap: 2,
            ..Outer::default()
        };
        let stale = parse(r#"{"i":[1],"n":[1,[2,3]],"cap":2}"#).unwrap();
        assert_eq!(
            describe(&o.load(&stale).unwrap_err()),
            "snapshot: `cap`: not a member of this snapshot"
        );
        let twice = parse(r#"{"i":[1],"i":[2],"n":[1,[2,3]]}"#).unwrap();
        assert_eq!(o.load(&twice).unwrap_err(), ".i: appears twice");
        let mut t = Tagged::default();
        t.load(&parse(r#"{"tag":"x","n":4}"#).unwrap()).unwrap();
        t.load(&parse(r#"{"n":5}"#).unwrap()).unwrap();
        assert_eq!(t.n, 5);
        assert_eq!(
            t.load(&parse(r#"{"n":5,"tag":1,"tag":2}"#).unwrap()),
            Err(".tag: appears twice".into())
        );
        assert_eq!(
            t.load(&parse(r#"{"n":5,"m":1}"#).unwrap()),
            Err(".m: not a member of this snapshot".into())
        );
    }
}
