(* Tests for the exact-arithmetic substrate: bigints against the native
   int oracle, rational field laws, harmonic numbers. *)

open Bi_num

let bigint = Alcotest.testable Bigint.pp Bigint.equal
let rat = Alcotest.testable Rat.pp Rat.equal
let ext = Alcotest.testable Extended.pp Extended.equal

(* --- Bigint unit tests --- *)

let test_of_to_int () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (Printf.sprintf "roundtrip %d" n)
        (Some n)
        (Bigint.to_int_opt (Bigint.of_int n)))
    [ 0; 1; -1; 9999; 10000; 10001; -10000; 123456789; -987654321;
      max_int; min_int; max_int - 1; min_int + 1 ]

let test_of_string () =
  Alcotest.(check string) "positive" "123456789012345678901234567890"
    (Bigint.to_string (Bigint.of_string "123456789012345678901234567890"));
  Alcotest.(check string) "negative" "-42" (Bigint.to_string (Bigint.of_string "-42"));
  Alcotest.(check string) "leading zeros" "7" (Bigint.to_string (Bigint.of_string "0007"));
  Alcotest.(check string) "zero" "0" (Bigint.to_string (Bigint.of_string "000"));
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (Bigint.of_string ""));
  Alcotest.check_raises "garbage" (Invalid_argument "Bigint.of_string: invalid character")
    (fun () -> ignore (Bigint.of_string "12x4"))

let test_add_carries () =
  let a = Bigint.of_string "9999999999999999" in
  Alcotest.check bigint "carry chain"
    (Bigint.of_string "10000000000000000")
    (Bigint.add a Bigint.one)

let test_mul_large () =
  let a = Bigint.of_string "123456789" in
  let b = Bigint.of_string "987654321" in
  Alcotest.check bigint "large product" (Bigint.of_string "121932631112635269")
    (Bigint.mul a b)

let test_divmod_signs () =
  (* Truncated division: same convention as OCaml's / and mod. *)
  List.iter
    (fun (a, b) ->
      let q, r = Bigint.divmod (Bigint.of_int a) (Bigint.of_int b) in
      Alcotest.check bigint
        (Printf.sprintf "q %d/%d" a b)
        (Bigint.of_int (a / b)) q;
      Alcotest.check bigint
        (Printf.sprintf "r %d/%d" a b)
        (Bigint.of_int (a mod b)) r)
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (0, 5); (100000007, 10007);
      (999999999, 1); (12, 12); (5, 7); (-5, 7) ]

let test_div_by_zero () =
  Alcotest.check_raises "divmod by zero" Division_by_zero (fun () ->
      ignore (Bigint.divmod Bigint.one Bigint.zero))

let test_gcd () =
  let g a b = Bigint.to_int_opt (Bigint.gcd (Bigint.of_int a) (Bigint.of_int b)) in
  Alcotest.(check (option int)) "gcd 12 18" (Some 6) (g 12 18);
  Alcotest.(check (option int)) "gcd 0 5" (Some 5) (g 0 5);
  Alcotest.(check (option int)) "gcd -12 18" (Some 6) (g (-12) 18);
  Alcotest.(check (option int)) "gcd 0 0" (Some 0) (g 0 0);
  Alcotest.(check (option int)) "coprime" (Some 1) (g 17 19)

let test_pow () =
  Alcotest.check bigint "2^62" (Bigint.of_string "4611686018427387904")
    (Bigint.pow Bigint.two 62);
  Alcotest.check bigint "x^0" Bigint.one (Bigint.pow (Bigint.of_int 17) 0);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (Bigint.pow Bigint.two (-1)))

let test_factorial () =
  Alcotest.check bigint "20!" (Bigint.of_string "2432902008176640000")
    (Bigint.factorial 20);
  Alcotest.check bigint "30!" (Bigint.of_string "265252859812191058636308480000000")
    (Bigint.factorial 30);
  Alcotest.check bigint "0!" Bigint.one (Bigint.factorial 0)

let test_to_float () =
  Alcotest.(check (float 1e-6)) "1e20"
    1e20
    (Bigint.to_float (Bigint.of_string "100000000000000000000"))

(* --- Bigint properties against the int oracle --- *)

let int_pm_million = QCheck2.Gen.int_range (-1_000_000) 1_000_000

let prop_binop name op big_op =
  QCheck2.Test.make ~name ~count:500
    QCheck2.Gen.(pair int_pm_million int_pm_million)
    (fun (a, b) ->
      Bigint.equal
        (Bigint.of_int (op a b))
        (big_op (Bigint.of_int a) (Bigint.of_int b)))

let prop_add = prop_binop "bigint add matches int" ( + ) Bigint.add
let prop_sub = prop_binop "bigint sub matches int" ( - ) Bigint.sub
let prop_mul = prop_binop "bigint mul matches int" ( * ) Bigint.mul

let prop_divmod =
  QCheck2.Test.make ~name:"bigint divmod matches int" ~count:500
    QCheck2.Gen.(pair int_pm_million int_pm_million)
    (fun (a, b) ->
      QCheck2.assume (b <> 0);
      let q, r = Bigint.divmod (Bigint.of_int a) (Bigint.of_int b) in
      Bigint.equal q (Bigint.of_int (a / b)) && Bigint.equal r (Bigint.of_int (a mod b)))

let prop_compare =
  QCheck2.Test.make ~name:"bigint compare matches int" ~count:500
    QCheck2.Gen.(pair int_pm_million int_pm_million)
    (fun (a, b) ->
      Stdlib.compare a b = Bigint.compare (Bigint.of_int a) (Bigint.of_int b))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"bigint string roundtrip" ~count:500
    QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let x = Bigint.of_string s in
      Bigint.equal x (Bigint.of_string (Bigint.to_string x)))

let prop_mul_div_cancel =
  QCheck2.Test.make ~name:"(a*b)/b = a over big operands" ~count:200
    QCheck2.Gen.(pair (string_size ~gen:(char_range '1' '9') (int_range 1 40))
                   (string_size ~gen:(char_range '1' '9') (int_range 1 25)))
    (fun (sa, sb) ->
      let a = Bigint.of_string sa and b = Bigint.of_string sb in
      let q, r = Bigint.divmod (Bigint.mul a b) b in
      Bigint.equal q a && Bigint.is_zero r)

let prop_gcd_divides =
  QCheck2.Test.make ~name:"gcd divides both" ~count:300
    QCheck2.Gen.(pair int_pm_million int_pm_million)
    (fun (a, b) ->
      QCheck2.assume (a <> 0 || b <> 0);
      let g = Bigint.gcd (Bigint.of_int a) (Bigint.of_int b) in
      Bigint.is_zero (Bigint.rem (Bigint.of_int a) g)
      && Bigint.is_zero (Bigint.rem (Bigint.of_int b) g))

(* --- Fast path vs all-big oracle ---

   Every arithmetic operation has a machine-word fast path and a limb
   path; [Bigint.force_big] re-encodes a value in the limb representation
   without changing it, so running each law on all four promotion
   combinations (fast/fast, big/big, and mixed) checks that the two
   tiers agree — including on the overflow boundaries where the fast
   path must promote.  Agreement is checked by [Bigint.equal] and by
   [to_string], whose rendering also differs between the tiers. *)

let boundary_int =
  QCheck2.Gen.(
    oneof
      [
        int_range (-10_000) 10_000;
        map (fun d -> max_int - d) (int_range 0 3);
        map (fun d -> min_int + d) (int_range 0 3);
        (* Straddle the 2^31 limb boundary and the 2^62 promotion edge. *)
        map2
          (fun s d -> if s then 0x4000_0000 + d else -0x4000_0000 - d)
          bool (int_range (-2) 2);
        map2
          (fun s d ->
            if s then 0x4000_0000_0000_0000 - d
            else -0x4000_0000_0000_0000 + d)
          bool (int_range 0 4);
        int;
      ])

let mixed_bigint_gen =
  QCheck2.Gen.(
    oneof
      [
        map Bigint.of_int boundary_int;
        map2
          (fun neg s ->
            let x = Bigint.of_string s in
            if neg then Bigint.neg x else x)
          bool
          (string_size ~gen:(char_range '0' '9') (int_range 1 45));
      ])

let agree r r' = Bigint.equal r r' && String.equal (Bigint.to_string r) (Bigint.to_string r')

let prop_tier2 name f =
  QCheck2.Test.make ~name:(name ^ ": fast path agrees with all-big path")
    ~count:1200
    QCheck2.Gen.(pair mixed_bigint_gen mixed_bigint_gen)
    (fun (x, y) ->
      let bx = Bigint.force_big x and by = Bigint.force_big y in
      let r = f x y in
      List.for_all (fun r' -> agree r r') [ f bx by; f bx y; f x by ])

let prop_tier_add = prop_tier2 "add" Bigint.add
let prop_tier_sub = prop_tier2 "sub" Bigint.sub
let prop_tier_mul = prop_tier2 "mul" Bigint.mul
let prop_tier_gcd = prop_tier2 "gcd" Bigint.gcd

let prop_tier_divmod =
  QCheck2.Test.make ~name:"divmod: fast path agrees with all-big path" ~count:1200
    QCheck2.Gen.(pair mixed_bigint_gen mixed_bigint_gen)
    (fun (x, y) ->
      QCheck2.assume (not (Bigint.is_zero y));
      let bx = Bigint.force_big x and by = Bigint.force_big y in
      let q, r = Bigint.divmod x y in
      List.for_all
        (fun (q', r') -> agree q q' && agree r r')
        [ Bigint.divmod bx by; Bigint.divmod bx y; Bigint.divmod x by ])

let prop_tier_compare =
  QCheck2.Test.make ~name:"compare: fast path agrees with all-big path" ~count:1200
    QCheck2.Gen.(pair mixed_bigint_gen mixed_bigint_gen)
    (fun (x, y) ->
      let bx = Bigint.force_big x and by = Bigint.force_big y in
      let s v = Stdlib.compare v 0 in
      let c = s (Bigint.compare x y) in
      c = s (Bigint.compare bx by)
      && c = s (Bigint.compare bx y)
      && c = s (Bigint.compare x by))

let prop_tier_compare_products =
  QCheck2.Test.make ~name:"compare_products = compare of products, all tiers"
    ~count:1200
    QCheck2.Gen.(quad mixed_bigint_gen mixed_bigint_gen mixed_bigint_gen mixed_bigint_gen)
    (fun (a, b, c, d) ->
      let s v = Stdlib.compare v 0 in
      let expected = s (Bigint.compare (Bigint.mul a b) (Bigint.mul c d)) in
      s (Bigint.compare_products a b c d) = expected
      && s
           (Bigint.compare_products (Bigint.force_big a) b c
              (Bigint.force_big d))
         = expected)

let prop_tier_compare_fractions =
  QCheck2.Test.make ~name:"compare_fractions = cross-product comparison, all tiers"
    ~count:1200
    QCheck2.Gen.(
      quad mixed_bigint_gen
        (map Bigint.abs mixed_bigint_gen)
        mixed_bigint_gen
        (map Bigint.abs mixed_bigint_gen))
    (fun (a, b, c, d) ->
      QCheck2.assume (not (Bigint.is_zero b) && not (Bigint.is_zero d));
      let s v = Stdlib.compare v 0 in
      let expected = s (Bigint.compare (Bigint.mul a d) (Bigint.mul c b)) in
      s (Bigint.compare_fractions a b c d) = expected
      && s
           (Bigint.compare_fractions (Bigint.force_big a) (Bigint.force_big b)
              (Bigint.force_big c) (Bigint.force_big d))
         = expected)

let prop_tier_unary =
  QCheck2.Test.make ~name:"neg/abs/sign/to_int_opt agree across tiers" ~count:1200
    mixed_bigint_gen
    (fun x ->
      let bx = Bigint.force_big x in
      agree (Bigint.neg x) (Bigint.neg bx)
      && agree (Bigint.abs x) (Bigint.abs bx)
      && Bigint.sign x = Bigint.sign bx
      && Bigint.to_int_opt x = Bigint.to_int_opt bx
      && String.equal (Bigint.to_string x) (Bigint.to_string bx))

(* --- Rational unit tests --- *)

let test_rat_normalization () =
  Alcotest.check rat "6/4 = 3/2" (Rat.of_ints 3 2) (Rat.of_ints 6 4);
  Alcotest.check rat "-6/-4 = 3/2" (Rat.of_ints 3 2) (Rat.of_ints (-6) (-4));
  Alcotest.check rat "6/-4 = -3/2" (Rat.of_ints (-3) 2) (Rat.of_ints 6 (-4));
  Alcotest.(check string) "pp integer" "5" (Rat.to_string (Rat.of_ints 10 2));
  Alcotest.(check string) "pp fraction" "-3/2" (Rat.to_string (Rat.of_ints 6 (-4)))

let test_rat_arith () =
  Alcotest.check rat "1/2 + 1/3" (Rat.of_ints 5 6)
    (Rat.add (Rat.of_ints 1 2) (Rat.of_ints 1 3));
  Alcotest.check rat "1/2 * 2/3" (Rat.of_ints 1 3)
    (Rat.mul (Rat.of_ints 1 2) (Rat.of_ints 2 3));
  Alcotest.check rat "(1/2) / (3/4)" (Rat.of_ints 2 3)
    (Rat.div (Rat.of_ints 1 2) (Rat.of_ints 3 4));
  Alcotest.check rat "inv" (Rat.of_ints 7 3) (Rat.inv (Rat.of_ints 3 7));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Rat.inv Rat.zero))

let test_harmonic () =
  Alcotest.check rat "H(1)" Rat.one (Rat.harmonic 1);
  Alcotest.check rat "H(4)" (Rat.of_ints 25 12) (Rat.harmonic 4);
  Alcotest.check rat "H(0)" Rat.zero (Rat.harmonic 0);
  (* H(n) - H(n-1) = 1/n with exact arithmetic. *)
  Alcotest.check rat "H(50)-H(49)" (Rat.of_ints 1 50)
    (Rat.sub (Rat.harmonic 50) (Rat.harmonic 49))

(* The memo table behind [Rat.harmonic] must be invisible: every call,
   in any order, returns exactly the naively recomputed partial sum. *)
let prop_harmonic_memo =
  QCheck2.Test.make ~name:"memoized harmonic = direct recomputation"
    ~count:100
    QCheck2.Gen.(int_range 0 200)
    (fun n ->
      let direct =
        List.fold_left
          (fun acc i -> Rat.add acc (Rat.of_ints 1 i))
          Rat.zero
          (List.init n (fun i -> i + 1))
      in
      Rat.equal (Rat.harmonic n) direct)

let test_rat_average () =
  Alcotest.check rat "average" (Rat.of_ints 1 2)
    (Rat.average [ Rat.zero; Rat.one ]);
  Alcotest.check_raises "empty average" (Invalid_argument "Rat.average: empty list")
    (fun () -> ignore (Rat.average []))

let test_rat_pow () =
  Alcotest.check rat "(2/3)^3" (Rat.of_ints 8 27) (Rat.pow (Rat.of_ints 2 3) 3);
  Alcotest.check rat "(2/3)^-2" (Rat.of_ints 9 4) (Rat.pow (Rat.of_ints 2 3) (-2));
  Alcotest.check rat "x^0" Rat.one (Rat.pow (Rat.of_ints 7 5) 0)

let rat_gen =
  QCheck2.Gen.(
    map2 (fun n d -> Rat.of_ints n d) (int_range (-1000) 1000) (int_range 1 1000))

let prop_rat_field =
  QCheck2.Test.make ~name:"rational distributivity" ~count:300
    QCheck2.Gen.(triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
      Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

let prop_rat_add_comm =
  QCheck2.Test.make ~name:"rational add commutative/associative" ~count:300
    QCheck2.Gen.(triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
      Rat.equal (Rat.add a b) (Rat.add b a)
      && Rat.equal (Rat.add (Rat.add a b) c) (Rat.add a (Rat.add b c)))

let prop_rat_order_total =
  QCheck2.Test.make ~name:"rational order antisymmetric & transitive-ish" ~count:300
    QCheck2.Gen.(triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
      let ( <= ) = Rat.( <= ) in
      (a <= b || b <= a)
      && ((not (a <= b && b <= c)) || a <= c)
      && ((not (a <= b && b <= a)) || Rat.equal a b))

let prop_rat_float_consistent =
  QCheck2.Test.make ~name:"to_float close to exact" ~count:300 rat_gen (fun a ->
      Float.abs (Rat.to_float a -. Rat.to_float a) < 1e-9)

(* --- Cross-representation laws against a decimal-string reference ---

   The limb arithmetic is checked against schoolbook digit-at-a-time
   routines on decimal strings: an independent oracle that shares no
   code and no radix with the base-2^31 representation, so a carry bug
   and its mirror in the oracle cannot cancel.  Operands concentrate on
   the adversarial spots: limb boundaries (2^31 +- d, 2^62 +- d), long
   9-carry chains, powers of ten, and wide random digit strings. *)

module Dec = struct
  (* Non-negative magnitudes as '0'..'9' strings without leading zeros. *)
  let norm s =
    let n = String.length s in
    let i = ref 0 in
    while !i < n - 1 && s.[!i] = '0' do
      incr i
    done;
    String.sub s !i (n - !i)

  let cmp a b =
    let a = norm a and b = norm b in
    let c = Stdlib.compare (String.length a) (String.length b) in
    if c <> 0 then c else Stdlib.compare a b

  let add a b =
    let la = String.length a and lb = String.length b in
    let n = Stdlib.max la lb + 1 in
    let out = Bytes.make n '0' in
    let carry = ref 0 in
    for k = 0 to n - 1 do
      let da = if k < la then Char.code a.[la - 1 - k] - 48 else 0 in
      let db = if k < lb then Char.code b.[lb - 1 - k] - 48 else 0 in
      let s = da + db + !carry in
      Bytes.set out (n - 1 - k) (Char.chr (48 + (s mod 10)));
      carry := s / 10
    done;
    norm (Bytes.to_string out)

  (* [sub a b] requires [a >= b]. *)
  let sub a b =
    let la = String.length a and lb = String.length b in
    let out = Bytes.make la '0' in
    let borrow = ref 0 in
    for k = 0 to la - 1 do
      let da = Char.code a.[la - 1 - k] - 48 in
      let db = if k < lb then Char.code b.[lb - 1 - k] - 48 else 0 in
      let d = da - db - !borrow in
      let d, b' = if d < 0 then (d + 10, 1) else (d, 0) in
      Bytes.set out (la - 1 - k) (Char.chr (48 + d));
      borrow := b'
    done;
    assert (!borrow = 0);
    norm (Bytes.to_string out)

  let mul_digit a d =
    if d = 0 then "0"
    else begin
      let la = String.length a in
      let out = Bytes.make (la + 1) '0' in
      let carry = ref 0 in
      for k = 0 to la - 1 do
        let p = ((Char.code a.[la - 1 - k] - 48) * d) + !carry in
        Bytes.set out (la - k) (Char.chr (48 + (p mod 10)));
        carry := p / 10
      done;
      Bytes.set out 0 (Char.chr (48 + !carry));
      norm (Bytes.to_string out)
    end

  let mul a b =
    let lb = String.length b in
    let total = ref "0" in
    for k = 0 to lb - 1 do
      let part = mul_digit a (Char.code b.[k] - 48) in
      if part <> "0" then
        total := add !total (part ^ String.make (lb - 1 - k) '0')
    done;
    !total

  (* Long division, one quotient digit per dividend digit; [b <> "0"]. *)
  let divmod a b =
    let q = Buffer.create (String.length a) in
    let rem = ref "0" in
    String.iter
      (fun c ->
        rem := norm (!rem ^ String.make 1 c);
        let d = ref 0 in
        while cmp (mul_digit b (!d + 1)) !rem <= 0 do
          incr d
        done;
        rem := sub !rem (mul_digit b !d);
        Buffer.add_char q (Char.chr (48 + !d)))
      a;
    (norm (Buffer.contents q), !rem)

  (* Signed wrappers over (sign, magnitude), mirroring the truncated
     division convention of OCaml's [/] and [mod]. *)
  let parts s =
    if String.length s > 0 && s.[0] = '-' then
      (-1, norm (String.sub s 1 (String.length s - 1)))
    else (1, norm s)

  let signed sg m = if m = "0" || sg >= 0 then m else "-" ^ m

  let sadd a b =
    let sa, ma = parts a and sb, mb = parts b in
    if sa = sb then signed sa (add ma mb)
    else if cmp ma mb >= 0 then signed sa (sub ma mb)
    else signed sb (sub mb ma)

  let ssub a b =
    let sb, mb = parts b in
    sadd a (signed (-sb) mb)

  let smul a b =
    let sa, ma = parts a and sb, mb = parts b in
    signed (sa * sb) (mul ma mb)

  let sdivmod a b =
    let sa, ma = parts a and sb, mb = parts b in
    let q, r = divmod ma mb in
    (signed (sa * sb) q, signed sa r)

  let rec sgcd a b =
    let _, mb = parts b in
    if mb = "0" then snd (parts a)
    else sgcd mb (snd (sdivmod a mb))
end

let p31 = "2147483648" (* 2^31 *)
let p62 = "4611686018427387904" (* 2^62 *)

let adversarial_mag =
  QCheck2.Gen.(
    oneof
      [
        (* limb boundaries: 2^31 +- d and 2^62 +- d *)
        map (fun d -> Dec.sadd p31 (string_of_int d)) (int_range (-2) 2);
        map (fun d -> Dec.sadd p62 (string_of_int d)) (int_range (-2) 2);
        (* squared boundary: around 2^124, deep in multi-limb land *)
        map
          (fun d -> Dec.sadd (Dec.mul p62 p62) (string_of_int d))
          (int_range (-2) 2);
        (* long carry chains and powers of ten *)
        map (fun n -> String.make n '9') (int_range 1 60);
        map (fun n -> "1" ^ String.make n '0') (int_range 0 60);
        (* wide random digit strings *)
        map Dec.norm (string_size ~gen:(char_range '0' '9') (int_range 1 60));
        map string_of_int (int_range 0 1_000_000);
      ])

let adversarial_dec =
  QCheck2.Gen.(
    map2 (fun neg m -> if neg then Dec.signed (-1) m else m) bool
      adversarial_mag)

let prop_dec_binop name op ref_op =
  QCheck2.Test.make ~name:("limb vs decimal reference: " ^ name) ~count:400
    QCheck2.Gen.(pair adversarial_dec adversarial_dec)
    (fun (sa, sb) ->
      let r = op (Bigint.of_string sa) (Bigint.of_string sb) in
      String.equal (Bigint.to_string r) (ref_op sa sb))

let prop_dec_add = prop_dec_binop "add" Bigint.add Dec.sadd
let prop_dec_sub = prop_dec_binop "sub" Bigint.sub Dec.ssub
let prop_dec_mul = prop_dec_binop "mul" Bigint.mul Dec.smul

let prop_dec_divmod =
  QCheck2.Test.make ~name:"limb vs decimal reference: divmod" ~count:400
    QCheck2.Gen.(pair adversarial_dec adversarial_dec)
    (fun (sa, sb) ->
      QCheck2.assume (snd (Dec.parts sb) <> "0");
      let q, r = Bigint.divmod (Bigint.of_string sa) (Bigint.of_string sb) in
      let q', r' = Dec.sdivmod sa sb in
      String.equal (Bigint.to_string q) q'
      && String.equal (Bigint.to_string r) r')

let prop_dec_gcd =
  QCheck2.Test.make ~name:"limb vs decimal reference: gcd" ~count:150
    QCheck2.Gen.(pair adversarial_dec adversarial_dec)
    (fun (sa, sb) ->
      let g = Bigint.gcd (Bigint.of_string sa) (Bigint.of_string sb) in
      String.equal (Bigint.to_string g) (Dec.sgcd sa sb))

let prop_dec_roundtrip =
  QCheck2.Test.make ~name:"of_string/to_string roundtrip, both tiers"
    ~count:600 adversarial_dec
    (fun s ->
      let x = Bigint.of_string s in
      String.equal (Bigint.to_string x) s
      && String.equal (Bigint.to_string (Bigint.force_big x)) s
      && Bigint.equal x (Bigint.of_string (Bigint.to_string x)))

(* --- In-place accumulators vs the pure fold --- *)

type big_acc_op = Badd of Bigint.t | Bsub of Bigint.t | Bmul of Bigint.t * Bigint.t

let big_acc_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun x -> Badd x) mixed_bigint_gen;
        map (fun x -> Bsub x) mixed_bigint_gen;
        map2 (fun x y -> Bmul (x, y)) mixed_bigint_gen mixed_bigint_gen;
      ])

let prop_bigint_acc =
  QCheck2.Test.make ~name:"Bigint.Acc = pure fold" ~count:400
    QCheck2.Gen.(list_size (int_range 0 20) big_acc_op_gen)
    (fun ops ->
      let acc = Bigint.Acc.create () in
      let pure =
        List.fold_left
          (fun t op ->
            match op with
            | Badd x ->
              Bigint.Acc.add acc x;
              Bigint.add t x
            | Bsub x ->
              Bigint.Acc.sub acc x;
              Bigint.sub t x
            | Bmul (x, y) ->
              Bigint.Acc.add_mul acc x y;
              Bigint.add t (Bigint.mul x y))
          Bigint.zero ops
      in
      (* Snapshot twice: [to_t] must not disturb the accumulator. *)
      agree (Bigint.Acc.to_t acc) pure && agree (Bigint.Acc.to_t acc) pure)

type rat_acc_op =
  | Radd of Rat.t
  | Rsub of Rat.t
  | Rmul of Rat.t * Rat.t

let rat_acc_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun x -> Radd x) rat_gen;
        map (fun x -> Rsub x) rat_gen;
        map2 (fun x y -> Rmul (x, y)) rat_gen rat_gen;
      ])

let prop_rat_acc =
  QCheck2.Test.make ~name:"Rat.Acc = pure fold" ~count:400
    QCheck2.Gen.(list_size (int_range 0 20) rat_acc_op_gen)
    (fun ops ->
      let acc = Rat.Acc.create () in
      let pure =
        List.fold_left
          (fun t op ->
            match op with
            | Radd x ->
              Rat.Acc.add acc x;
              Rat.add t x
            | Rsub x ->
              Rat.Acc.sub acc x;
              Rat.sub t x
            | Rmul (x, y) ->
              Rat.Acc.add_mul acc x y;
              Rat.add t (Rat.mul x y))
          Rat.zero ops
      in
      let snap = Rat.Acc.to_rat acc in
      Rat.equal snap pure
      && String.equal (Rat.to_string snap) (Rat.to_string pure)
      && Rat.equal (Rat.Acc.to_rat acc) pure)

(* --- Hash-consing laws ---

   An interned rational must be indistinguishable from a fresh one by
   every observation the solvers and the cache make: comparison (both
   orders), equality, rendering (which is what game fingerprints hash),
   and the polymorphic hash.  Repeat interning must return the same
   physical value. *)

let hc_table = Rat.Hc.create ()

let indistinguishable interned fresh =
  Rat.equal interned fresh
  && Rat.compare interned fresh = 0
  && Rat.compare fresh interned = 0
  && String.equal (Rat.to_string interned) (Rat.to_string fresh)
  && Hashtbl.hash interned = Hashtbl.hash fresh

let prop_hc_of_ints =
  QCheck2.Test.make ~name:"hash-consed of_ints = fresh of_ints" ~count:500
    QCheck2.Gen.(pair (int_range (-1000) 1000) (int_range 1 1000))
    (fun (n, d) ->
      let interned = Rat.Hc.of_ints hc_table n d in
      indistinguishable interned (Rat.of_ints n d)
      && Rat.Hc.of_ints hc_table n d == interned)

let prop_hc_harmonic =
  QCheck2.Test.make ~name:"hash-consed harmonic = fresh harmonic" ~count:100
    QCheck2.Gen.(int_range 0 150)
    (fun n ->
      let interned = Rat.Hc.harmonic hc_table n in
      indistinguishable interned (Rat.harmonic n)
      && Rat.Hc.harmonic hc_table n == interned)

let prop_hc_intern =
  QCheck2.Test.make ~name:"intern is identity up to physical sharing"
    ~count:500 rat_gen
    (fun r ->
      let interned = Rat.Hc.intern hc_table r in
      indistinguishable interned r && Rat.Hc.intern hc_table r == interned)

(* --- Extended --- *)

let test_extended () =
  Alcotest.check ext "inf + x" Extended.Inf (Extended.add Extended.Inf Extended.one);
  Alcotest.check ext "0 * inf = 0 (measure convention)" Extended.zero
    (Extended.mul Extended.zero Extended.Inf);
  Alcotest.check ext "2 * inf" Extended.Inf (Extended.mul (Extended.of_int 2) Extended.Inf);
  Alcotest.(check bool) "fin < inf" true Extended.(one < Inf);
  Alcotest.(check bool) "inf <= inf" true Extended.(Inf <= Inf);
  Alcotest.(check int) "compare inf inf" 0 (Extended.compare Extended.Inf Extended.Inf);
  Alcotest.check ext "sum with inf" Extended.Inf
    (Extended.sum [ Extended.one; Extended.Inf ]);
  Alcotest.(check (float 0.0)) "to_float inf" Float.infinity (Extended.to_float Extended.Inf);
  Alcotest.check_raises "to_rat_exn inf"
    (Invalid_argument "Extended.to_rat_exn: infinite") (fun () ->
      ignore (Extended.to_rat_exn Extended.Inf))

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_add; prop_sub; prop_mul; prop_divmod; prop_compare;
      prop_string_roundtrip; prop_mul_div_cancel; prop_gcd_divides;
      prop_rat_field; prop_rat_add_comm; prop_rat_order_total;
      prop_rat_float_consistent; prop_harmonic_memo ]

let tier_qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_tier_add; prop_tier_sub; prop_tier_mul; prop_tier_gcd;
      prop_tier_divmod; prop_tier_compare; prop_tier_compare_products;
      prop_tier_compare_fractions; prop_tier_unary ]

let dec_qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dec_add; prop_dec_sub; prop_dec_mul; prop_dec_divmod;
      prop_dec_gcd; prop_dec_roundtrip ]

let acc_hc_qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_bigint_acc; prop_rat_acc; prop_hc_of_ints; prop_hc_harmonic;
      prop_hc_intern ]

let () =
  Alcotest.run "bi_num"
    [
      ( "bigint",
        [
          Alcotest.test_case "int roundtrip" `Quick test_of_to_int;
          Alcotest.test_case "of_string/to_string" `Quick test_of_string;
          Alcotest.test_case "carry chains" `Quick test_add_carries;
          Alcotest.test_case "large multiplication" `Quick test_mul_large;
          Alcotest.test_case "divmod sign conventions" `Quick test_divmod_signs;
          Alcotest.test_case "division by zero" `Quick test_div_by_zero;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "to_float" `Quick test_to_float;
        ] );
      ( "rational",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "harmonic numbers" `Quick test_harmonic;
          Alcotest.test_case "average" `Quick test_rat_average;
          Alcotest.test_case "pow" `Quick test_rat_pow;
        ] );
      ("extended", [ Alcotest.test_case "infinity arithmetic" `Quick test_extended ]);
      ("properties", qtests);
      ("representation-tiers", tier_qtests);
      ("decimal-reference", dec_qtests);
      ("accumulators-hashcons", acc_hc_qtests);
    ]
