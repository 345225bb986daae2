package repro.sketch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.NumericType
import repro.mi.{ColData, NumCol, StrCol}

/** A sketch is a DataFrame with schema
  * `[hkey: long, hu: double, vNum: double?, vStr: string?]` — the paper's
  * tuples ⟨h(k), x_k⟩ plus the h_u value used for sampling (kept for
  * diagnostics). Exactly one of vNum/vStr is non-null per table, determined
  * by the sketched column's type.
  *
  * This object holds the pieces every scheme shares: input normalization,
  * occurrence numbering and the top-n selection, over which the five
  * schemes are one pipeline told apart only by data (`Sketcher`); and the
  * paper's deployment model (Sections I, V-D): sketch each table once,
  * collect the small sketch to the driver as a [[Sketch.SketchData]] (one
  * Spark job), then join sketches in memory with [[Sketch.merge]], which
  * runs no Spark job.
  */
object Sketch {

  /** How the n-minimum-hash selection is executed. */
  sealed trait TopNImpl
  object TopNImpl {
    /** Single-pass bounded-memory typed Aggregator (the UDAF path). */
    case object Udaf extends TopNImpl
    /** Catalyst `TakeOrderedAndProject` via orderBy+limit (cross-check path). */
    case object SortLimit extends TopNImpl
  }

  /** Sketching parameters: the single size parameter n the paper advertises. */
  final case class SketchConf(n: Int) {
    require(n > 0, "sketch size must be positive")
  }

  /** Normalize an input table's (key, value) pair to columns
    * `[k: string, vNum: double?, vStr: string?, rid: long]`, dropping rows
    * with NULL key or value (left-join misses are discarded per Section III)
    * and rows whose numeric value is NaN or infinite, which the k-NN
    * estimators cannot order. `rid` is a per-partition-stable row id used to
    * define occurrence order and FIRST's first value.
    */
  def normalize(df: DataFrame, key: String, value: String): DataFrame = {
    val numeric = df.schema(value).dataType.isInstanceOf[NumericType]
    val vNum    = if (numeric) df(value).cast("double") else lit(null).cast("double")
    val vStr    = if (numeric) lit(null).cast("string") else df(value).cast("string")
    val finite  = if (numeric) !isnan(vNum) && abs(vNum) =!= Double.PositiveInfinity else lit(true)
    df.filter(df(key).isNotNull && df(value).isNotNull && finite)
      .select(
        df(key).cast("string") as "k",
        vNum as "vNum",
        vStr as "vStr",
        monotonically_increasing_id() as "rid",
      )
  }

  /** Occurrence index j of each key (1-based): the ⟨k, j⟩ sampling frame. */
  def withOccurrence(norm: DataFrame): DataFrame =
    norm.withColumn("j", row_number().over(Window.partitionBy("k").orderBy("rid")))

  /** Keep the n rows with minimum (hu, hkey) from a pre-sketch DataFrame
    * `[hkey, hu, vNum, vStr]`. Both implementations are deterministic and
    * tested to agree exactly.
    */
  def topN(pre: DataFrame, n: Int, impl: TopNImpl): DataFrame = impl match {
    case TopNImpl.SortLimit =>
      pre.orderBy(col("hu").asc, col("hkey").asc).limit(n)
    case TopNImpl.Udaf =>
      val spark = pre.sparkSession
      import spark.implicits._
      pre
        .select(col("hkey"), col("hu"), col("vNum"), col("vStr"))
        .as[SketchRow]
        .select(new KMinAggregator(n).toColumn)
        .flatMap(_.rows)
        .toDF()
  }

  /** A sketch collected to the driver: its rows as arrays sorted by hkey,
    * ties in value order, so the layout is a function of the sketch's
    * contents. `values` is numeric iff no row holds a string; an empty
    * sketch is numeric.
    */
  final case class SketchData(hkey: Array[Long], values: ColData) {
    def size: Int = hkey.length
  }

  object SketchData {
    /** Collect a sketch `[hkey, hu, vNum, vStr]` in one Spark job. */
    def collect(sketch: DataFrame): SketchData = {
      val rows = sketch.select("hkey", "vNum", "vStr").collect()
      if (rows.forall(_.isNullAt(2))) {
        val kv = rows.map(r => (r.getLong(0), r.getDouble(1)))
          .sorted(Ordering.Tuple2(Ordering.Long, Ordering.Double.TotalOrdering))
        SketchData(kv.map(_._1), NumCol(kv.map(_._2)))
      } else {
        val kv = rows.map(r => (r.getLong(0), r.getString(2))).sorted
        SketchData(kv.map(_._1), StrCol(kv.map(_._2)))
      }
    }
  }

  /** A collected sketch-join sample ready for an MI estimator. */
  final case class Sample(x: ColData, y: ColData) { def size: Int = x.size }

  /** The sketch join (Section IV, "Approach Overview"), merged in memory
    * and running no Spark job: the inner join of two hkey-sorted sketches,
    * one sample row per pair of rows with equal hkeys. The left (train)
    * sketch holds the target Y, the right (candidate) sketch the feature
    * X. A sample column is numeric iff it holds no string, so an empty
    * join is numeric on both sides.
    */
  def merge(left: SketchData, right: SketchData): Sample = {
    val li = Array.newBuilder[Int]
    val ri = Array.newBuilder[Int]
    var i  = 0
    var j  = 0 // right rows before j have hkeys below left.hkey(i)
    while (i < left.size && j < right.size) {
      val h = left.hkey(i)
      if (h < right.hkey(j)) i += 1
      else if (h > right.hkey(j)) j += 1
      else {
        var b = j
        while (b < right.size && right.hkey(b) == h) { li += i; ri += b; b += 1 }
        i += 1
      }
    }
    Sample(x = pick(right.values, ri.result()), y = pick(left.values, li.result()))
  }

  private def pick(values: ColData, idx: Array[Int]): ColData = values match {
    case StrCol(vs) if idx.nonEmpty => StrCol(idx.map(vs))
    case StrCol(_)                  => NumCol(Array.empty)
    case NumCol(vs)                 => NumCol(idx.map(vs))
  }

  /** DataFrame-level entry to the sketch join, for callers holding sketch
    * DataFrames: `collectSample(join(left, right))` collects both sketches
    * (one job each) and merges them with [[merge]].
    */
  def join(left: DataFrame, right: DataFrame): (SketchData, SketchData) =
    (SketchData.collect(left), SketchData.collect(right))

  /** Merge two sketches collected by [[join]]. */
  def collectSample(joined: (SketchData, SketchData)): Sample = merge(joined._1, joined._2)
}

/** One sketch tuple; `hu` orders the k-minimum selection. */
final case class SketchRow(hkey: Long, hu: Double, vNum: Option[Double], vStr: Option[String])
